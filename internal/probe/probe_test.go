package probe_test

import (
	"context"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/probe"
	"securepki.org/registrarsec/internal/registrar"
)

type world struct {
	eco  *ecosystem.Ecosystem
	env  *probe.Env
	byID map[string]*registrar.Registrar
	t    *testing.T
}

func newWorld(t *testing.T) *world {
	t.Helper()
	eco, err := ecosystem.New(ecosystem.Config{TLDs: []string{"com", "se"}})
	if err != nil {
		t.Fatal(err)
	}
	return &world{
		eco: eco,
		env: &probe.Env{
			Tree:       eco.Tree,
			Registries: eco.Registries,
			Clock:      eco.Clock.Day,
		},
		byID: make(map[string]*registrar.Registrar),
		t:    t,
	}
}

func (w *world) reg(p registrar.Policy) *registrar.Registrar {
	w.t.Helper()
	if p.Roles == nil {
		p.Roles = map[string]registrar.Role{"com": {Kind: registrar.RoleRegistrar}}
	}
	r, err := registrar.New(p, registrar.Deps{
		Registries: w.eco.Registries, Net: w.eco.Net, Clock: w.eco.Clock.Day,
	})
	if err != nil {
		w.t.Fatal(err)
	}
	w.byID[p.ID] = r
	return r
}

func TestProbeDiscoversGoDaddyLikePolicy(t *testing.T) {
	w := newWorld(t)
	r := w.reg(registrar.Policy{
		ID: "godaddy", Name: "GoDaddy", NSHosts: []string{"ns01.domaincontrol.com"},
		HostedDNSSEC: registrar.SupportPaid, DNSSECFee: 35,
		OwnerDNSSEC: false,
	})
	obs, err := probe.New(w.env).Run(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.HostedSigned || !obs.HostedNeededFee || obs.HostedByDefault {
		t.Errorf("hosted findings: %+v", obs)
	}
	if obs.HostedDeployment != dnssec.DeploymentFull {
		t.Errorf("hosted deployment: %v", obs.HostedDeployment)
	}
	if obs.OwnerSupported {
		t.Error("probe found owner DS support where none exists")
	}
}

func TestProbeDiscoversNameCheapLikePlanGating(t *testing.T) {
	w := newWorld(t)
	r := w.reg(registrar.Policy{
		ID: "namecheap", Name: "NameCheap", NSHosts: []string{"dns1.registrar-servers.com"},
		HostedDNSSEC: registrar.SupportDefaultSomePlans,
		DNSSECPlans:  map[string]bool{"premiumdns": true},
		DefaultPlan:  "freedns",
		OwnerDNSSEC:  true, DSChannel: channel.Web,
	})
	obs, err := probe.New(w.env).Run(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.HostedSigned || !obs.HostedPlanGated {
		t.Errorf("plan gating not discovered: %+v", obs)
	}
	if obs.HostedByDefault {
		t.Error("default-signing misreported for the free plan")
	}
}

func TestProbeDiscoversValidationBehaviour(t *testing.T) {
	w := newWorld(t)

	strict := w.reg(registrar.Policy{
		ID: "ovh", Name: "OVH", NSHosts: []string{"dns1.ovh.net"},
		HostedDNSSEC: registrar.SupportOptIn,
		OwnerDNSSEC:  true, DSChannel: channel.Web, ValidatesDS: true,
	})
	sloppy := w.reg(registrar.Policy{
		ID: "sloppy", Name: "Sloppy", NSHosts: []string{"ns1.sloppy.net"},
		OwnerDNSSEC: true, DSChannel: channel.Web, ValidatesDS: false,
	})
	p := probe.New(w.env)

	obsStrict, err := p.Run(context.Background(), strict)
	if err != nil {
		t.Fatal(err)
	}
	if obsStrict.RejectsBogusDS != probe.ObservedYes {
		t.Errorf("validating registrar: RejectsBogusDS = %v", obsStrict.RejectsBogusDS)
	}
	if obsStrict.OwnerDeployment != dnssec.DeploymentFull {
		t.Errorf("owner deployment: %v", obsStrict.OwnerDeployment)
	}

	obsSloppy, err := p.Run(context.Background(), sloppy)
	if err != nil {
		t.Fatal(err)
	}
	if obsSloppy.RejectsBogusDS != probe.ObservedNo {
		t.Errorf("sloppy registrar: RejectsBogusDS = %v", obsSloppy.RejectsBogusDS)
	}
	if !obsSloppy.HostedSigned == false && obsSloppy.HostedSigned {
		t.Error("hosted misreport")
	}
}

func TestProbeDiscoversEmailVulnerability(t *testing.T) {
	w := newWorld(t)
	lax := w.reg(registrar.Policy{
		ID: "laxmail", Name: "LaxMail", NSHosts: []string{"ns1.laxmail.net"},
		OwnerDNSSEC: true, DSChannel: channel.Email, EmailAuth: registrar.EmailAuthNone,
	})
	strict := w.reg(registrar.Policy{
		ID: "codereg", Name: "CodeReg", NSHosts: []string{"ns1.codereg.net"},
		OwnerDNSSEC: true, DSChannel: channel.Email, EmailAuth: registrar.EmailAuthCode,
	})
	p := probe.New(w.env)
	obsLax, err := p.Run(context.Background(), lax)
	if err != nil {
		t.Fatal(err)
	}
	if obsLax.ChannelUsed != channel.Email || obsLax.RejectsForgedEmail != probe.ObservedNo {
		t.Errorf("lax email registrar: channel=%v forged=%v", obsLax.ChannelUsed, obsLax.RejectsForgedEmail)
	}
	obsStrict, err := p.Run(context.Background(), strict)
	if err != nil {
		t.Fatal(err)
	}
	if obsStrict.RejectsForgedEmail != probe.ObservedYes {
		t.Errorf("code-auth registrar: forged=%v", obsStrict.RejectsForgedEmail)
	}
}

func TestProbeDiscoversAlternativeFlows(t *testing.T) {
	w := newWorld(t)
	fetcher := w.reg(registrar.Policy{
		ID: "pcx", Name: "PCExtreme", NSHosts: []string{"ns1.pcextreme.nl"},
		OwnerDNSSEC: true, FetchesDNSKEY: true,
	})
	keyup := w.reg(registrar.Policy{
		ID: "aws", Name: "Amazon", NSHosts: []string{"ns1.keyreg.net"},
		OwnerDNSSEC: true, AcceptsDNSKEY: true,
	})
	ticketer := w.reg(registrar.Policy{
		ID: "123reg", Name: "123-reg", NSHosts: []string{"ns1.123-reg.co.uk"},
		OwnerDNSSEC: true, DSChannel: channel.Ticket,
	})
	p := probe.New(w.env)

	obs, err := p.Run(context.Background(), fetcher)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.FetchesDNSKEY || obs.OwnerDeployment != dnssec.DeploymentFull {
		t.Errorf("fetch flow: %+v", obs)
	}
	if obs.RejectsBogusDS != probe.ObservedYes {
		t.Errorf("fetch flow bogus: %v", obs.RejectsBogusDS)
	}

	obs, err = p.Run(context.Background(), keyup)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.AcceptsDNSKEY || obs.OwnerDeployment != dnssec.DeploymentFull {
		t.Errorf("dnskey flow: %+v", obs)
	}

	obs, err = p.Run(context.Background(), ticketer)
	if err != nil {
		t.Fatal(err)
	}
	if obs.ChannelUsed != channel.Ticket || obs.OwnerDeployment != dnssec.DeploymentFull {
		t.Errorf("ticket flow: %+v", obs)
	}
	if obs.RejectsBogusDS != probe.ObservedNo {
		t.Errorf("ticket validation: %v", obs.RejectsBogusDS)
	}
}

func TestProbeRecordsChatMisapply(t *testing.T) {
	w := newWorld(t)
	r := w.reg(registrar.Policy{
		ID: "hostgator", Name: "HostGator", NSHosts: []string{"ns1.hostgator.com"},
		OwnerDNSSEC: true, DSChannel: channel.Chat, ChatErrorRate: 1.0,
	})
	// Seed victims so the agent has something to mis-target.
	r.CreateAccount("bystander@x.net")
	if err := r.Purchase("bystander@x.net", "innocent.com", ""); err != nil {
		t.Fatal(err)
	}
	obs, err := probe.New(w.env).Run(context.Background(), r)
	if err != nil {
		t.Fatal(err)
	}
	if !obs.ChatMisapplied {
		t.Fatalf("misapply not recorded: %+v", obs.Notes)
	}
	if obs.MisappliedVictim == "" {
		t.Error("victim not recorded")
	}
}

func TestSummarizeAndRender(t *testing.T) {
	w := newWorld(t)
	regs := []*registrar.Registrar{
		w.reg(registrar.Policy{
			ID: "r1", Name: "Alpha", NSHosts: []string{"ns1.alpha.net"},
			HostedDNSSEC: registrar.SupportDefault,
			OwnerDNSSEC:  true, DSChannel: channel.Web, ValidatesDS: true,
		}),
		w.reg(registrar.Policy{
			ID: "r2", Name: "Beta", NSHosts: []string{"ns1.beta.net"},
			OwnerDNSSEC: true, DSChannel: channel.Email, EmailAuth: registrar.EmailAuthNone,
		}),
		w.reg(registrar.Policy{
			ID: "r3", Name: "Gamma", NSHosts: []string{"ns1.gamma.net"},
		}),
	}
	obs := probe.New(w.env).RunAll(context.Background(), regs)
	if len(obs) != 3 {
		t.Fatalf("observations: %d", len(obs))
	}
	s := probe.Summarize(obs)
	if s.Probed != 3 || s.HostedSupport != 1 || s.OwnerSupport != 2 {
		t.Errorf("summary: %+v", s)
	}
	if s.ValidateDS != 1 || s.NoValidateDS != 1 {
		t.Errorf("validation tallies: %+v", s)
	}
	if s.ForgedEmailOK != 1 || s.EmailTested != 1 {
		t.Errorf("email tallies: %+v", s)
	}
	table2 := probe.RenderTable2(obs, map[string]int{"Alpha": 12345})
	if !strings.Contains(table2, "Alpha") || !strings.Contains(table2, "12345") {
		t.Errorf("table2:\n%s", table2)
	}
	table3 := probe.RenderTable3(obs, nil)
	if !strings.Contains(table3, "Gamma") {
		t.Errorf("table3:\n%s", table3)
	}
	rows := probe.Survey(regs, w.byID, []string{"com", "se"})
	if rows[0].PerTLD["com"] != "Alpha" || rows[0].PerTLD["se"] != "no support" {
		t.Errorf("survey: %+v", rows[0])
	}
	t4 := probe.RenderTable4(rows, []string{"com", "se"})
	if !strings.Contains(t4, "no support") {
		t.Errorf("table4:\n%s", t4)
	}
}

func TestProbeResellerChain(t *testing.T) {
	w := newWorld(t)
	partner := w.reg(registrar.Policy{
		ID: "bigp", Name: "BigPartner", NSHosts: []string{"ns1.bigp.net"},
	})
	reseller := w.reg(registrar.Policy{
		ID: "shop", Name: "Shop", NSHosts: []string{"ns1.shop.net"},
		HostedDNSSEC: registrar.SupportDefault,
		OwnerDNSSEC:  true, DSChannel: channel.Web,
		Roles: map[string]registrar.Role{"com": {Kind: registrar.RoleReseller, Partner: "bigp"}},
	})
	reseller.SetPartner("com", partner)
	obs, err := probe.New(w.env).Run(context.Background(), reseller)
	if err != nil {
		t.Fatal(err)
	}
	if obs.HostedDeployment != dnssec.DeploymentFull {
		t.Errorf("reseller hosted deployment: %v", obs.HostedDeployment)
	}
	if !obs.OwnerSupported || obs.OwnerDeployment != dnssec.DeploymentFull {
		t.Errorf("reseller owner flow: %+v", obs)
	}
}
