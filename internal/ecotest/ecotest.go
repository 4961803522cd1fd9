// Package ecotest is test support for what registrars and operators do in
// a registry ecosystem: the ecosystem, registrar agents wired into it, and
// the paper's deployment class of a domain as a validating resolver sees
// it. dnstest, beside it, builds DNS hierarchies without registries.
package ecotest

import (
	"context"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// World is a registry ecosystem under test.
type World struct {
	*ecosystem.Ecosystem
	t testing.TB
}

// New builds the ecosystem of cfg.
func New(t testing.TB, cfg ecosystem.Config) *World {
	t.Helper()
	eco, err := ecosystem.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return &World{Ecosystem: eco, t: t}
}

// Registrar builds the agent of policy p wired into the world: its
// registries, network and clock. It is the registrar of .com unless p names
// its roles.
func (w *World) Registrar(p registrar.Policy) *registrar.Registrar {
	w.t.Helper()
	if p.Roles == nil {
		p.Roles = map[string]registrar.Role{"com": {Kind: registrar.RoleRegistrar}}
	}
	r, err := registrar.New(p, registrar.Deps{Registries: w.Registries, Net: w.Net, Clock: w.Clock.Day})
	if err != nil {
		w.t.Fatal(err)
	}
	return r
}

// Buy opens account at r and buys each of domains through it, hosted on
// r's own nameservers.
func (w *World) Buy(r *registrar.Registrar, account string, domains ...string) {
	w.t.Helper()
	r.CreateAccount(account)
	for _, d := range domains {
		if err := r.Purchase(account, d, ""); err != nil {
			w.t.Fatalf("purchase %s: %v", d, err)
		}
	}
}

// Classify is the paper's deployment class of a registered domain: a DS at
// its registry, a DNSKEY and a secure chain as the validating resolver
// observes them.
func (w *World) Classify(domain string) dnssec.Deployment {
	w.t.Helper()
	tld, _ := dnswire.Parent(domain)
	reg, ok := w.Registries[tld].Registration(domain)
	if !ok {
		w.t.Fatalf("%s not registered", domain)
	}
	res, chain, err := w.Validating().Lookup(context.Background(), domain, dnswire.TypeDNSKEY)
	if err != nil {
		w.t.Fatalf("lookup %s: %v", domain, err)
	}
	hasKey := len(res.RRSet(domain, dnswire.TypeDNSKEY).RRs) > 0
	return dnssec.Classify(hasKey, len(reg.DS) > 0, chain.Status == dnssec.Secure)
}

// Expect fails t unless domain's deployment class (Classify) is want.
func (w *World) Expect(t testing.TB, domain string, want dnssec.Deployment) {
	t.Helper()
	if got := w.Classify(domain); got != want {
		t.Fatalf("%s: deployment %v, want %v", domain, got, want)
	}
}

// OwnerZone is a zone its owner signs and serves: domain's SOA and NS
// nsHost, signed with keys of its own whose signatures run to a year past
// simtime.End, served by the authoritative host at nsHost on eco's network
// (registered there unless one is already).
func OwnerZone(t testing.TB, eco *ecosystem.Ecosystem, domain, nsHost string) (*zone.Zone, *zone.Signer) {
	t.Helper()
	z := zone.New(domain)
	z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.SOA{
		MName: nsHost, RName: "hostmaster." + domain,
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.NS{Host: nsHost}))
	signer, err := zone.NewSigner(dnswire.AlgED25519, eco.Clock.Day().Time())
	if err != nil {
		t.Fatal(err)
	}
	signer.Expiration = simtime.End.Time().AddDate(1, 0, 0)
	if err := signer.Sign(z); err != nil {
		t.Fatal(err)
	}
	host, ok := eco.Net.Lookup(nsHost).(*dnsserver.Authoritative)
	if !ok {
		host = dnsserver.NewAuthoritative()
		eco.Net.Register(nsHost, host)
	}
	host.AddZone(z)
	return z, signer
}

// ClassWorld is a world of .com and .nl with a domain in each deployment
// class a scan tells apart, and the names to scan: full1.com, full2.com and
// dutch.nl fully deployed by a registrar that signs and uploads its DS;
// half1.com and half2.com signed by one that uploads DS records for .nl
// only; none1.com to none3.com unsigned; victim.com an unsigned zone behind
// a garbage DS a chat desk installed; and ghost.com, never registered.
func ClassWorld(t testing.TB) (*World, Targets) {
	t.Helper()
	w := New(t, ecosystem.Config{TLDs: []string{"com", "nl"}})
	roles := map[string]registrar.Role{"com": {Kind: registrar.RoleRegistrar}, "nl": {Kind: registrar.RoleRegistrar}}
	good := w.Registrar(registrar.Policy{ID: "good", Name: "Good", NSHosts: []string{"ns1.good.net"}, Roles: roles,
		HostedDNSSEC: registrar.SupportDefault})
	partial := w.Registrar(registrar.Policy{ID: "partial", Name: "Partial", NSHosts: []string{"ns1.partial.net"}, Roles: roles,
		HostedDNSSEC: registrar.SupportDefault, PublishDSTLDs: map[string]bool{"nl": true}})
	plain := w.Registrar(registrar.Policy{ID: "plain", Name: "Plain", NSHosts: []string{"ns1.plain.net"}, Roles: roles,
		OwnerDNSSEC: true, DSChannel: channel.Chat})
	w.Buy(good, "c@x.net", "full1.com", "full2.com", "dutch.nl")
	w.Buy(partial, "c@x.net", "half1.com", "half2.com")
	w.Buy(plain, "c@x.net", "none1.com", "none2.com", "none3.com", "victim.com")
	garbage := &dnswire.DS{KeyTag: 7, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if _, err := plain.ChatUploadDS(context.Background(), "c@x.net", "victim.com", garbage); err != nil {
		t.Fatal(err)
	}
	var targets Targets
	for _, d := range []string{"full1.com", "full2.com", "dutch.nl", "half1.com", "half2.com", "none1.com", "none2.com", "none3.com", "victim.com", "ghost.com"} {
		targets = append(targets, scan.Target{Domain: d, TLD: d[strings.LastIndexByte(d, '.')+1:]})
	}
	return w, targets
}

// Targets is an in-memory scan.TargetSource.
type Targets []scan.Target

func (l Targets) Len() int                      { return len(l) }
func (l Targets) Target(i int) (string, string) { return l[i].Domain, l[i].TLD }

// ScanConfig is a scan of a ClassWorld's .com and .nl over its network and
// clock on workers workers.
func ScanConfig(eco *ecosystem.Ecosystem, workers int) scan.Config {
	return scan.Config{
		Exchange: eco.Net,
		TLDServers: map[string]string{
			"com": ecosystem.TLDServerAddr("com"),
			"nl":  ecosystem.TLDServerAddr("nl"),
		},
		Workers: workers,
		Clock:   eco.Clock.Day,
	}
}
