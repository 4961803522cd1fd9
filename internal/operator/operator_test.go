package operator_test

import (
	"context"
	"errors"
	"testing"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/operator"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/simtime"
)

type fixture struct {
	eco *ecosystem.Ecosystem
	op  *operator.Operator
	reg *registrar.Registrar
}

// newFixture wires a Cloudflare-like operator plus a registrar with a web
// DS form, and a customer domain delegated to the operator.
func newFixture(t *testing.T, opCfg operator.Config) *fixture {
	t.Helper()
	eco, err := ecosystem.New(ecosystem.Config{
		TLDs:    []string{"com"},
		CDSTLDs: map[string]bool{"com": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	eco.Clock.Set(simtime.CloudflareUniversalDNSSEC + 30)
	opCfg.Clock = eco.Clock.Day
	opCfg.Net = eco.Net
	op, err := operator.New(opCfg)
	if err != nil {
		t.Fatal(err)
	}
	reg, err := registrar.New(registrar.Policy{
		ID: "webreg", Name: "WebReg", NSHosts: []string{"ns1.webreg.net"},
		OwnerDNSSEC: true, DSChannel: channel.Web,
		Roles: map[string]registrar.Role{"com": {Kind: registrar.RoleRegistrar}},
	}, registrar.Deps{Registries: eco.Registries, Net: eco.Net, Clock: eco.Clock.Day})
	if err != nil {
		t.Fatal(err)
	}
	reg.CreateAccount("cust@x.net")
	if err := reg.Purchase("cust@x.net", "site.com", ""); err != nil {
		t.Fatal(err)
	}
	if _, err := op.CreateZone("site.com"); err != nil {
		t.Fatal(err)
	}
	if err := reg.UseExternalNameservers("cust@x.net", "site.com", op.NSHosts()); err != nil {
		t.Fatal(err)
	}
	return &fixture{eco: eco, op: op, reg: reg}
}

func classify(t *testing.T, f *fixture, domain string) dnssec.Deployment {
	t.Helper()
	r, ok := f.eco.Registries["com"].Registration(domain)
	if !ok {
		t.Fatalf("%s not registered", domain)
	}
	v := f.eco.Validating()
	res, chain, err := v.Lookup(context.Background(), domain, dnswire.TypeDNSKEY)
	if err != nil {
		t.Fatal(err)
	}
	hasKey := len(res.RRSet(domain, dnswire.TypeDNSKEY).RRs) > 0
	return dnssec.Classify(hasKey, len(r.DS) > 0, chain.Status == dnssec.Secure)
}

func cloudflareCfg() operator.Config {
	return operator.Config{
		ID: "cloudflare", Name: "Cloudflare",
		NSHosts:         []string{"ana.ns.cloudflare.com", "bob.ns.cloudflare.com"},
		SupportsDNSSEC:  true,
		DNSSECLaunchDay: simtime.CloudflareUniversalDNSSEC,
	}
}

func TestOperatorDSRelayFlow(t *testing.T) {
	f := newFixture(t, cloudflareCfg())
	// Delegated, unsigned: none.
	if got := classify(t, f, "site.com"); got != dnssec.DeploymentNone {
		t.Fatalf("before enable: %v", got)
	}
	ds, err := f.op.EnableDNSSEC("site.com")
	if err != nil {
		t.Fatal(err)
	}
	// The operator signed the zone, but the customer has not relayed the
	// DS: the paper's 40% gap state.
	if got := classify(t, f, "site.com"); got != dnssec.DeploymentPartial {
		t.Fatalf("before relay: %v", got)
	}
	// The customer completes the relay through the registrar web form.
	if err := f.reg.SubmitDSWeb(context.Background(), "cust@x.net", "site.com", ds); err != nil {
		t.Fatal(err)
	}
	if got := classify(t, f, "site.com"); got != dnssec.DeploymentFull {
		t.Fatalf("after relay: %v", got)
	}
	// DSRecord re-issues the same DS.
	again, err := f.op.DSRecord("site.com")
	if err != nil || again.KeyTag != ds.KeyTag {
		t.Errorf("DSRecord: %v %v", again, err)
	}
}

func TestOperatorWithoutDNSSEC(t *testing.T) {
	f := newFixture(t, operator.Config{
		ID: "dnspod", Name: "DNSPod",
		NSHosts:        []string{"ns1.dnspod.net"},
		SupportsDNSSEC: false,
	})
	if _, err := f.op.EnableDNSSEC("site.com"); !errors.Is(err, operator.ErrNoDNSSEC) {
		t.Errorf("DNSPod enabled DNSSEC: %v", err)
	}
}

func TestOperatorLaunchGate(t *testing.T) {
	f := newFixture(t, cloudflareCfg())
	f.eco.Clock.Set(simtime.CloudflareUniversalDNSSEC - 10)
	if _, err := f.op.EnableDNSSEC("site.com"); !errors.Is(err, operator.ErrNotLaunched) {
		t.Errorf("pre-launch enable: %v", err)
	}
	f.eco.Clock.Set(simtime.CloudflareUniversalDNSSEC)
	if _, err := f.op.EnableDNSSEC("site.com"); err != nil {
		t.Errorf("launch-day enable: %v", err)
	}
}

func TestOperatorUnknownZone(t *testing.T) {
	f := newFixture(t, cloudflareCfg())
	if _, err := f.op.EnableDNSSEC("nothere.com"); !errors.Is(err, operator.ErrNoSuchZone) {
		t.Errorf("unknown zone: %v", err)
	}
	if _, err := f.op.DSRecord("site.com"); !errors.Is(err, operator.ErrNotEnabled) {
		t.Errorf("DSRecord before enable: %v", err)
	}
	if err := f.op.DisableDNSSEC("nothere.com"); !errors.Is(err, operator.ErrNoSuchZone) {
		t.Errorf("disable unknown: %v", err)
	}
}

func TestOperatorDisableOrderMatters(t *testing.T) {
	f := newFixture(t, cloudflareCfg())
	ds, err := f.op.EnableDNSSEC("site.com")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.reg.SubmitDSWeb(context.Background(), "cust@x.net", "site.com", ds); err != nil {
		t.Fatal(err)
	}
	// Disabling at the operator while the DS is still in the registry
	// leaves the domain bogus — the operational trap.
	if err := f.op.DisableDNSSEC("site.com"); err != nil {
		t.Fatal(err)
	}
	if got := classify(t, f, "site.com"); got != dnssec.DeploymentBroken {
		t.Errorf("disable with stale DS: %v", got)
	}
	// Removing the DS restores a clean insecure state.
	if err := f.eco.Registries["com"].DeleteDS("webreg", "site.com"); err != nil {
		t.Fatal(err)
	}
	if got := classify(t, f, "site.com"); got != dnssec.DeploymentNone {
		t.Errorf("after DS removal: %v", got)
	}
}

func TestOperatorCDSAutomation(t *testing.T) {
	cfg := cloudflareCfg()
	cfg.PublishesCDS = true
	f := newFixture(t, cfg)
	if _, err := f.op.EnableDNSSEC("site.com"); err != nil {
		t.Fatal(err)
	}
	// Without the relay, partial...
	if got := classify(t, f, "site.com"); got != dnssec.DeploymentPartial {
		t.Fatalf("before CDS scan: %v", got)
	}
	// ...until the CDS-polling registry bootstraps the DS itself.
	report, err := f.eco.Registries["com"].ScanCDS(context.Background(), f.eco.Net, f.eco.Clock.Day(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.Bootstrapped != 1 {
		t.Fatalf("CDS report: %+v", report)
	}
	if got := classify(t, f, "site.com"); got != dnssec.DeploymentFull {
		t.Errorf("after CDS scan: %v", got)
	}
}

func TestOperatorBootstrapViaRegistrarDraft(t *testing.T) {
	f := newFixture(t, cloudflareCfg())
	if _, err := f.op.EnableDNSSEC("site.com"); err != nil {
		t.Fatal(err)
	}
	// The draft protocol: the operator pushes the DS to the registrar
	// directly, no customer involved.
	if err := f.op.BootstrapViaRegistrar(context.Background(), "site.com", f.reg); err != nil {
		t.Fatal(err)
	}
	if got := classify(t, f, "site.com"); got != dnssec.DeploymentFull {
		t.Errorf("after draft bootstrap: %v", got)
	}
}

func TestOperatorAccessors(t *testing.T) {
	f := newFixture(t, cloudflareCfg())
	hosts := f.op.NSHosts()
	if len(hosts) != 2 || hosts[0] != "ana.ns.cloudflare.com" {
		t.Errorf("NSHosts: %v", hosts)
	}
	if _, ok := f.op.SignatureValidUntil("site.com"); ok {
		t.Error("signature window before enable")
	}
	if _, err := f.op.EnableDNSSEC("site.com"); err != nil {
		t.Fatal(err)
	}
	until, ok := f.op.SignatureValidUntil("site.com")
	if !ok || until.Before(f.eco.Clock.Day().Time()) {
		t.Errorf("signature window: %v %v", until, ok)
	}
	// Enabling twice reuses the signer (same DS).
	ds1, err := f.op.DSRecord("site.com")
	if err != nil {
		t.Fatal(err)
	}
	ds2, err := f.op.EnableDNSSEC("site.com")
	if err != nil {
		t.Fatal(err)
	}
	if ds1.KeyTag != ds2.KeyTag {
		t.Error("re-enabling rotated the key unexpectedly")
	}
	// Operators without nameservers are rejected at construction.
	if _, err := operator.New(operator.Config{ID: "x", Name: "X"}); err == nil {
		t.Error("operator without NS hosts accepted")
	}
}
