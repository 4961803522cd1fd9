package tldsim

import (
	"context"
	"testing"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/probe"
	"securepki.org/registrarsec/internal/registrar"
)

// buildProbeWorld wires the catalogue's registrar agents onto a live
// registry substrate.
func buildProbeWorld(t *testing.T) (*dnstest.Ecosystem, map[string]*registrar.Registrar, []*registrar.Registrar, []*registrar.Registrar) {
	t.Helper()
	eco, err := dnstest.NewEcosystem(dnstest.EcosystemConfig{})
	if err != nil {
		t.Fatal(err)
	}
	byID, top20, top10, err := BuildAgents(eco.Registries, eco.Net, eco.Clock.Day)
	if err != nil {
		t.Fatal(err)
	}
	return eco, byID, top20, top10
}

func TestCatalogSizes(t *testing.T) {
	_, byID, top20, top10 := buildProbeWorld(t)
	if len(top20) != 20 {
		t.Errorf("top-20 list has %d registrars", len(top20))
	}
	if len(top10) != 10 { // Table 3: 12 nameserver domains of 10 registrars
		t.Errorf("top-10 list has %d registrars", len(top10))
	}
	for _, id := range []string{"godaddy", "ovh", "namecheap", "loopia", "pcextreme", "ascio", "openprovider", "keysystems"} {
		if byID[id] == nil {
			t.Errorf("catalogue missing %s", id)
		}
	}
}

// TestTable2HeadlineNumbers probes the top-20 registrars and checks the
// section 5 findings:
//   - only three support DNSSEC when they are the DNS operator
//     (NameCheap by default on some plans, OVH opt-in, GoDaddy paid);
//   - 11 of 20 support DNSSEC with the owner as DNS operator;
//   - three of those channels are email;
//   - only two registrars validate uploaded DS records;
//   - at least one email registrar accepts a forged sender.
func TestTable2HeadlineNumbers(t *testing.T) {
	eco, _, top20, _ := buildProbeWorld(t)
	p := probe.New(&probe.Env{
		Tree: eco.Tree, Registries: eco.Registries, Clock: eco.Clock.Day,
	})
	obs := p.RunAll(context.Background(), top20)
	s := probe.Summarize(obs)

	if s.HostedSupport != 3 {
		t.Errorf("hosted DNSSEC support = %d registrars, paper found 3", s.HostedSupport)
	}
	if s.HostedDefault != 1 {
		t.Errorf("hosted DNSSEC by default = %d, paper found 1 (NameCheap, some plans)", s.HostedDefault)
	}
	if s.HostedPaid != 1 {
		t.Errorf("hosted DNSSEC paid = %d, paper found 1 (GoDaddy)", s.HostedPaid)
	}
	if s.OwnerSupport != 11 {
		t.Errorf("owner-as-operator support = %d, paper found 11", s.OwnerSupport)
	}
	if s.EmailChannel != 3 {
		t.Errorf("email channels = %d, paper found 3 (eNom, NameBright, DreamHost)", s.EmailChannel)
	}
	if s.ValidateDS != 2 {
		t.Errorf("DS-validating registrars = %d, paper found 2 (OVH, DreamHost)", s.ValidateDS)
	}
	if s.ForgedEmailOK < 1 {
		t.Errorf("no registrar accepted the forged email; paper found some did")
	}
	// Per-registrar spot checks.
	byName := map[string]*probe.Observation{}
	for _, o := range obs {
		byName[o.Registrar] = o
	}
	if o := byName["GoDaddy"]; !o.HostedNeededFee {
		t.Error("GoDaddy fee not discovered")
	}
	if o := byName["NameCheap"]; !o.HostedPlanGated {
		t.Error("NameCheap plan gating not discovered")
	}
	if o := byName["Amazon"]; !o.AcceptsDNSKEY {
		t.Error("Amazon DNSKEY upload not discovered")
	}
	if o := byName["123-reg"]; o.ChannelUsed != channel.Ticket {
		t.Errorf("123-reg channel = %v, want ticket", o.ChannelUsed)
	}
	if o := byName["HostGator"]; o.OwnerSupported && o.ChannelUsed != channel.Chat {
		t.Errorf("HostGator channel = %v, want chat", o.ChannelUsed)
	}
	if o := byName["NameBright"]; o.RejectsForgedEmail != probe.ObservedNo {
		t.Errorf("NameBright forged email = %v, want accepted", o.RejectsForgedEmail)
	}
	if o := byName["eNom"]; o.RejectsForgedEmail != probe.ObservedYes {
		t.Errorf("eNom forged email = %v, want rejected (code check)", o.RejectsForgedEmail)
	}
}

// TestTable3HeadlineNumbers probes the DNSSEC-heavy registrars: most sign
// by default, several only publish DS for some TLDs, 8 of 10 support
// owner-operated DNSSEC, and only OVH and PCExtreme validate.
func TestTable3HeadlineNumbers(t *testing.T) {
	eco, byID, _, top10 := buildProbeWorld(t)
	p := probe.New(&probe.Env{
		Tree: eco.Tree, Registries: eco.Registries, Clock: eco.Clock.Day,
	})
	// Table 3 covers ten registrars: the eight Table-3-only ones plus OVH
	// and NameCheap from the top-20 list.
	_ = byID
	regs := append([]*registrar.Registrar{}, top10...)
	if len(regs) != 10 {
		t.Fatalf("Table 3 population = %d registrars", len(regs))
	}
	obs := p.RunAll(context.Background(), regs)
	s := probe.Summarize(obs)
	if s.HostedSupport != 10 {
		t.Errorf("hosted support = %d of 10", s.HostedSupport)
	}
	// Paper: 9 of 10 sign by default (OVH is the opt-in exception;
	// NameCheap only on premium plans).
	if s.HostedDefault != 9 {
		t.Errorf("hosted by default = %d, paper found 9", s.HostedDefault)
	}
	if s.OwnerSupport != 8 {
		t.Errorf("owner support = %d of 10, paper found 8", s.OwnerSupport)
	}
	if s.ValidateDS != 2 {
		t.Errorf("validating registrars = %d, paper found 2 (OVH, PCExtreme)", s.ValidateDS)
	}

	byName := map[string]*probe.Observation{}
	for _, o := range obs {
		byName[o.Registrar] = o
	}
	// Partial-DS registrars: hosted .com domains stay partial.
	for _, name := range []string{"Loopia", "MeshDigital", "KPN"} {
		o := byName[name]
		if o.HostedUploadsDS {
			t.Errorf("%s uploaded a DS for .com; paper found partial deployment", name)
		}
	}
	if o := byName["PCExtreme"]; !o.FetchesDNSKEY {
		t.Error("PCExtreme fetch flow not discovered")
	}
	if o := byName["KPN"]; o.OwnerSupported {
		t.Error("KPN owner support misreported")
	}
	if o := byName["Antagonist"]; o.OwnerSupported {
		t.Error("Antagonist owner support misreported (intentionally absent)")
	}
	// Binero accepted a DS from a different address (section 6.4).
	if o := byName["Binero"]; o.RejectsForgedEmail != probe.ObservedNo {
		t.Errorf("Binero forged email = %v, want accepted", o.RejectsForgedEmail)
	}
	// Loopia verifies email via the account code.
	if o := byName["Loopia"]; o.RejectsForgedEmail != probe.ObservedYes {
		t.Errorf("Loopia forged email = %v, want rejected", o.RejectsForgedEmail)
	}
}

// TestTable4Survey checks the registrar/reseller matrix against Table 4.
func TestTable4Survey(t *testing.T) {
	_, byID, _, _ := buildProbeWorld(t)
	regs := []*registrar.Registrar{
		byID["ovh"], byID["godaddy"], byID["meshdigital"], byID["domainnameshop"],
		byID["transip"], byID["namecheap"], byID["binero"], byID["pcextreme"],
		byID["antagonist"], byID["loopia"], byID["kpn"],
	}
	byIDName := map[string]*registrar.Registrar{}
	for id, r := range byID {
		byIDName[id] = r
	}
	rows := probe.Survey(regs, byIDName, AllTLDs)
	get := func(name, tld string) string {
		for _, row := range rows {
			if row.Registrar == name {
				return row.PerTLD[tld]
			}
		}
		return "?"
	}
	cases := []struct{ reg, tld, want string }{
		{"OVH", "com", "OVH"},
		{"OVH", "se", "OVH"},
		{"GoDaddy", "nl", "GoDaddy"},
		{"TransIP", "nl", "TransIP"},
		{"TransIP", "se", "Key Systems"},
		{"NameCheap", "org", "eNom"},
		{"NameCheap", "nl", "no support"},
		{"PCExtreme", "com", "Open Provider"},
		{"PCExtreme", "nl", "PCExtreme"},
		{"Antagonist", "org", "Open Provider"},
		{"Loopia", "com", "Ascio"},
		{"Loopia", "se", "Loopia"},
		{"KPN", "com", "Ascio"},
		{"KPN", "nl", "KPN"},
		{"KPN", "se", "Open Provider"},
		{"MeshDigital", "se", "no support"},
		{"Binero", "nl", "no support"},
	}
	for _, c := range cases {
		if got := get(c.reg, c.tld); got != c.want {
			t.Errorf("Table 4 %s/.%s = %q, want %q", c.reg, c.tld, got, c.want)
		}
	}
}
