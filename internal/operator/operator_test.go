package operator_test

import (
	"context"
	"errors"
	"testing"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/ecotest"
	"securepki.org/registrarsec/internal/operator"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/simtime"
)

type fixture struct {
	*ecotest.World
	op  *operator.Operator
	reg *registrar.Registrar
}

// newFixture wires a Cloudflare-like operator plus a registrar with a web
// DS form, and a customer domain delegated to the operator.
func newFixture(t *testing.T, opCfg operator.Config) *fixture {
	t.Helper()
	w := ecotest.New(t, ecosystem.Config{
		TLDs:    []string{"com"},
		CDSTLDs: map[string]bool{"com": true},
	})
	w.Clock.Set(simtime.CloudflareUniversalDNSSEC + 30)
	opCfg.Clock = w.Clock.Day
	opCfg.Net = w.Net
	op, err := operator.New(opCfg)
	if err != nil {
		t.Fatal(err)
	}
	reg := w.Registrar(registrar.Policy{
		ID: "webreg", Name: "WebReg", NSHosts: []string{"ns1.webreg.net"},
		OwnerDNSSEC: true, DSChannel: channel.Web,
	})
	w.Buy(reg, "cust@x.net", "site.com")
	if _, err := op.CreateZone("site.com"); err != nil {
		t.Fatal(err)
	}
	if err := reg.UseExternalNameservers("cust@x.net", "site.com", op.NSHosts()); err != nil {
		t.Fatal(err)
	}
	return &fixture{World: w, op: op, reg: reg}
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
	f.Expect(t, "site.com", dnssec.DeploymentNone)
	ds, err := f.op.EnableDNSSEC("site.com")
	if err != nil {
		t.Fatal(err)
	}
	// The operator signed the zone, but the customer has not relayed the
	// DS: the paper's 40% gap state.
	f.Expect(t, "site.com", dnssec.DeploymentPartial)
	// The customer completes the relay through the registrar web form.
	if err := f.reg.SubmitDSWeb(context.Background(), "cust@x.net", "site.com", ds); err != nil {
		t.Fatal(err)
	}
	f.Expect(t, "site.com", dnssec.DeploymentFull)
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
	f.Clock.Set(simtime.CloudflareUniversalDNSSEC - 10)
	if _, err := f.op.EnableDNSSEC("site.com"); !errors.Is(err, operator.ErrNotLaunched) {
		t.Errorf("pre-launch enable: %v", err)
	}
	f.Clock.Set(simtime.CloudflareUniversalDNSSEC)
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
	f.Expect(t, "site.com", dnssec.DeploymentBroken)
	// Removing the DS restores a clean insecure state. WebReg offers no
	// DS removal, so the test resets its registry password and withdraws
	// the DS in an EPP session of its own as webreg.
	com := f.Registries["com"]
	com.Accredit("webreg", "reset")
	c, err := com.Dial("webreg", "reset")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.UpdateDS("site.com", nil); err != nil {
		t.Fatal(err)
	}
	f.Expect(t, "site.com", dnssec.DeploymentNone)
}

func TestOperatorCDSAutomation(t *testing.T) {
	cfg := cloudflareCfg()
	cfg.PublishesCDS = true
	f := newFixture(t, cfg)
	if _, err := f.op.EnableDNSSEC("site.com"); err != nil {
		t.Fatal(err)
	}
	// Without the relay, partial...
	f.Expect(t, "site.com", dnssec.DeploymentPartial)
	// ...until the CDS-polling registry bootstraps the DS itself.
	report, err := f.Registries["com"].ScanCDS(context.Background(), f.Net, f.Clock.Day(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.Bootstrapped != 1 {
		t.Fatalf("CDS report: %+v", report)
	}
	f.Expect(t, "site.com", dnssec.DeploymentFull)
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
	f.Expect(t, "site.com", dnssec.DeploymentFull)
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
	if !ok || until.Before(f.Clock.Day().Time()) {
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
