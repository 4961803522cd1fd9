package registry_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/ecotest"
	"securepki.org/registrarsec/internal/epp"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// newEco builds a one-TLD ecosystem with an incentive on .nl.
func newEco(t *testing.T, tlds ...string) *ecosystem.Ecosystem {
	t.Helper()
	if len(tlds) == 0 {
		tlds = []string{"com", "nl"}
	}
	return ecotest.New(t, ecosystem.Config{
		TLDs: tlds,
		Incentives: map[string]*registry.Incentive{
			"nl": {DiscountPerYear: 0.28, MaxFailures: 14, WindowDays: 180},
		},
		CDSTLDs: map[string]bool{"com": true},
	}).Ecosystem
}

// session logs in to reg as registrarID, accredited with a password of its
// own, for the rest of the test.
func session(t *testing.T, reg *registry.Registry, registrarID string) *epp.Client {
	t.Helper()
	reg.Accredit(registrarID, registrarID+"-pw")
	c, err := reg.Dial(registrarID, registrarID+"-pw")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// code runs cmd in the session c and returns its result code.
func code(t *testing.T, c *epp.Client, cmd *epp.Command) int {
	t.Helper()
	resp, err := c.Do(cmd)
	if resp == nil {
		t.Fatal(err)
	}
	return resp.Result.Code
}

// create, delegate, drop and renew are the commands that register domain,
// replace its delegation, delete it and renew it.
func create(domain string, ns ...string) *epp.Command {
	return &epp.Command{Create: &epp.DomainCreate{Name: domain, NS: ns}}
}
func delegate(domain string, ns ...string) *epp.Command {
	return &epp.Command{Update: &epp.DomainUpdate{Name: domain, Chg: &epp.DomainChg{NS: ns}}}
}
func drop(domain string) *epp.Command  { return &epp.Command{Delete: &epp.DomainRef{Name: domain}} }
func renew(domain string) *epp.Command { return &epp.Command{Renew: &epp.DomainRef{Name: domain}} }

func TestRegisterAndDelegation(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	c := session(t, reg, "acme")
	if err := c.CreateDomain("example.com", []string{"ns1.host.net", "NS2.Host.NET", "ns1.host.net"}, nil); err != nil {
		t.Fatal(err)
	}
	r, ok := reg.Registration("example.com")
	if !ok {
		t.Fatal("registration missing")
	}
	if len(r.NS) != 2 {
		t.Errorf("NS not deduplicated/canonicalized: %v", r.NS)
	}
	if r.Expires-r.Created != 365 {
		t.Errorf("period: %d days", r.Expires-r.Created)
	}
	// Delegation is visible in the zone.
	ns := reg.Server().Zone(reg.TLD()).Lookup("example.com", dnswire.TypeNS)
	if len(ns) != 2 {
		t.Errorf("zone NS count %d", len(ns))
	}
	if _, ok := reg.Registration("example.com"); !ok {
		t.Error("registration bookkeeping")
	}
}

func TestRegistryAuth(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	if _, err := reg.Dial("stranger", "pw"); !errors.Is(err, epp.ErrEPPResult) {
		t.Errorf("unaccredited login: %v", err)
	}
	acme, rival := session(t, reg, "acme"), session(t, reg, "rival")
	if got := code(t, acme, create("x.com", "ns1.x.net")); got != epp.CodeSuccess {
		t.Fatalf("create: %d", got)
	}
	if got := code(t, acme, create("x.com", "ns1.x.net")); got != epp.CodeObjectExists {
		t.Errorf("duplicate create: %d", got)
	}
	if got := code(t, rival, delegate("x.com", "ns1.evil.net")); got != epp.CodeAuthorization {
		t.Errorf("cross-registrar NS update: %d", got)
	}
	if got := code(t, acme, create("x.org", "ns1.x.net")); got != epp.CodeParamError {
		t.Errorf("out-of-TLD create: %d", got)
	}
	if got := code(t, acme, create("a.b.com", "ns1.x.net")); got != epp.CodeParamError {
		t.Errorf("third-level create: %d", got)
	}
	if got := code(t, acme, create("y.com")); got != epp.CodeParamError {
		t.Errorf("create without NS: %d", got)
	}
	if got := code(t, acme, delegate("x.com")); got != epp.CodeParamError {
		t.Errorf("empty NS: %d", got)
	}
}

func TestDSLifecycle(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	c := session(t, reg, "acme")
	if err := c.CreateDomain("signed.com", []string{"ns1.op.net"}, nil); err != nil {
		t.Fatal(err)
	}
	ds := &dnswire.DS{KeyTag: 1, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := c.UpdateDS("signed.com", []*dnswire.DS{ds}); err != nil {
		t.Fatal(err)
	}
	// DS RRset present and signed in the TLD zone.
	z := reg.Server().Zone(reg.TLD())
	if len(z.Lookup("signed.com", dnswire.TypeDS)) != 1 {
		t.Fatal("DS not in zone")
	}
	sigs := z.Lookup("signed.com", dnswire.TypeRRSIG)
	found := false
	for _, rr := range sigs {
		if rr.Data.(*dnswire.RRSIG).TypeCovered == dnswire.TypeDS {
			found = true
		}
	}
	if !found {
		t.Error("DS RRset unsigned")
	}
	if err := c.UpdateDS("signed.com", nil); err != nil {
		t.Fatal(err)
	}
	if len(z.Lookup("signed.com", dnswire.TypeDS)) != 0 {
		t.Error("DS not removed from zone")
	}
	if len(z.Lookup("signed.com", dnswire.TypeNS)) == 0 {
		t.Error("delegation lost on DS removal")
	}
}

// TestRenew: a renewal extends the registration by a year, and only its
// registrar may renew it.
func TestRenew(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	a, b := session(t, reg, "a"), session(t, reg, "b")
	if err := a.CreateDomain("keep.com", []string{"ns1.op.net"}, nil); err != nil {
		t.Fatal(err)
	}
	r, _ := reg.Registration("keep.com")
	before := r.Expires
	if got := code(t, a, renew("keep.com")); got != epp.CodeSuccess {
		t.Fatalf("renew: %d", got)
	}
	r, _ = reg.Registration("keep.com")
	if r.Expires != before+365 {
		t.Errorf("renewal: %d -> %d", before, r.Expires)
	}
	if got := code(t, b, renew("keep.com")); got != epp.CodeAuthorization {
		t.Errorf("cross-registrar renew: %d", got)
	}
}

// addSignedDomain wires a real signed child zone on the ecosystem network
// and registers it with a correct (or garbage) DS, as registrarID.
func addSignedDomain(t *testing.T, e *ecosystem.Ecosystem, reg *registry.Registry, registrarID, domain, nsHost string, goodDS bool) *zone.Signer {
	t.Helper()
	_, signer := ecotest.OwnerZone(t, e, domain, nsHost)
	var ds []*dnswire.DS
	if goodDS {
		var err error
		ds, err = signer.DSRecords(domain, dnswire.DigestSHA256)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		ds = []*dnswire.DS{{KeyTag: 9, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}}
	}
	if err := session(t, reg, registrarID).CreateDomain(domain, []string{nsHost}, ds); err != nil {
		t.Fatal(err)
	}
	return signer
}

func TestHealthCheckIncentives(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["nl"]
	addSignedDomain(t, e, reg, "dutchreg", "good.nl", "ns1.dutchreg.nl", true)
	addSignedDomain(t, e, reg, "dutchreg", "good2.nl", "ns1.dutchreg.nl", true)
	addSignedDomain(t, e, reg, "sloppyreg", "bad.nl", "ns1.sloppyreg.nl", false)

	day := e.Clock.Day()
	report, err := reg.HealthCheck(context.Background(), e.Net, day)
	if err != nil {
		t.Fatal(err)
	}
	if report.Checked != 3 || report.Valid != 2 {
		t.Fatalf("checked=%d valid=%d", report.Checked, report.Valid)
	}
	if report.FailuresByRegistrar["sloppyreg"] != 1 {
		t.Errorf("failures: %v", report.FailuresByRegistrar)
	}
	// Discount accrues only for the compliant registrar's valid domains.
	wantDaily := 2 * 0.28 / 365
	if got := report.DiscountsAccrued["dutchreg"]; got < wantDaily*0.99 || got > wantDaily*1.01 {
		t.Errorf("discount %v, want ~%v", got, wantDaily)
	}
	if _, ok := report.DiscountsAccrued["sloppyreg"]; ok {
		t.Error("broken domain earned a discount")
	}
	total := reg.Discounts()["dutchreg"]
	if total <= 0 {
		t.Error("discount ledger empty")
	}
	// A registry without an incentive program refuses the audit.
	if _, err := e.Registries["com"].HealthCheck(context.Background(), e.Net, day); err == nil {
		t.Error("incentive-less registry ran a health check")
	}
}

func TestHealthCheckFailureThreshold(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["nl"]
	addSignedDomain(t, e, reg, "flaky", "good.nl", "ns1.flaky.nl", true)
	addSignedDomain(t, e, reg, "flaky", "bad.nl", "ns2.flaky.nl", false)

	// 15 daily audits: each adds one failure; after exceeding MaxFailures
	// (14) within the window, even the valid domain stops earning.
	var last *registry.HealthReport
	for i := 0; i < 16; i++ {
		day := e.Clock.Advance(1)
		var err error
		last, err = reg.HealthCheck(context.Background(), e.Net, day)
		if err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := last.DiscountsAccrued["flaky"]; ok {
		t.Errorf("discount still accruing after %d failures: %+v", 16, last.DiscountsAccrued)
	}
}

func TestCDSScan(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"] // CDS-enabled in newEco
	signer := addSignedDomain(t, e, reg, "acme", "roll.com", "ns1.roll.net", true)

	// The child publishes a CDS for a NEW key (simulating a rollover): the
	// new KSK signs the zone, the old DS still references the old key.
	z := e.Net.Lookup("ns1.roll.net").(*dnsserver.Authoritative).Zone("roll.com")
	if z == nil {
		t.Fatal("child zone missing")
	}
	newSigner, err := zone.NewSigner(dnswire.AlgED25519, e.Clock.Day().Time())
	if err != nil {
		t.Fatal(err)
	}
	newSigner.Expiration = simtime.End.Time().AddDate(1, 0, 0)
	// Keep the old key in the DNSKEY RRset and sign the set with the OLD
	// key (still trusted via the current DS), publishing CDS for the new.
	z.MustAdd(newSigner.KSK.RR("roll.com", 3600))
	if err := signer.SignSet(z, "roll.com", dnswire.TypeDNSKEY); err != nil {
		t.Fatal(err)
	}
	ds, err := dnssec.ComputeDS("roll.com", newSigner.KSK.DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	z.MustAdd(dnswire.NewRR("roll.com", 3600, &dnswire.CDS{DS: *ds}))
	if err := signer.SignSet(z, "roll.com", dnswire.TypeCDS); err != nil {
		t.Fatal(err)
	}

	report, err := reg.ScanCDS(context.Background(), e.Net, e.Clock.Day(), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.Updated != 1 || report.Rejected != 0 {
		t.Fatalf("report: %+v", report)
	}
	r, _ := reg.Registration("roll.com")
	if len(r.DS) != 1 || !dnssec.MatchDS("roll.com", r.DS[0], newSigner.KSK.DNSKEY()) {
		t.Error("DS not rolled to the new key")
	}
	// A registry without CDS support refuses.
	if _, err := e.Registries["nl"].ScanCDS(context.Background(), e.Net, e.Clock.Day(), false); err == nil {
		t.Error("CDS scan ran on non-CDS registry")
	}
}

func TestCDSBootstrap(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]

	// A signed domain with NO DS (partial deployment) publishing CDS.
	z, signer := ecotest.OwnerZone(t, e, "boot.com", "ns1.boot.net")
	if err := signer.PublishCDS(z, dnswire.DigestSHA256); err != nil {
		t.Fatal(err)
	}
	if err := session(t, reg, "acme").CreateDomain("boot.com", []string{"ns1.boot.net"}, nil); err != nil {
		t.Fatal(err)
	}

	// Without bootstrap policy: rejected.
	report, err := reg.ScanCDS(context.Background(), e.Net, e.Clock.Day(), false)
	if err != nil {
		t.Fatal(err)
	}
	if report.Bootstrapped != 0 || report.Rejected != 1 {
		t.Fatalf("no-bootstrap report: %+v", report)
	}
	// With bootstrap: DS established.
	report, err = reg.ScanCDS(context.Background(), e.Net, e.Clock.Day(), true)
	if err != nil {
		t.Fatal(err)
	}
	if report.Bootstrapped != 1 {
		t.Fatalf("bootstrap report: %+v", report)
	}
	r, _ := reg.Registration("boot.com")
	if len(r.DS) != 1 || !dnssec.MatchDS("boot.com", r.DS[0], signer.KSK.DNSKEY()) {
		t.Error("bootstrapped DS wrong")
	}
}

func TestDropRemovesDelegation(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	acme := session(t, reg, "acme")
	ds := &dnswire.DS{KeyTag: 3, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := acme.CreateDomain("gone.com", []string{"ns1.op.net"}, []*dnswire.DS{ds}); err != nil {
		t.Fatal(err)
	}
	if got := code(t, acme, drop("gone.com")); got != epp.CodeSuccess {
		t.Fatalf("delete: %d", got)
	}
	if _, ok := reg.Registration("gone.com"); ok {
		t.Error("registration survived Drop")
	}
	z := reg.Server().Zone(reg.TLD())
	if len(z.Lookup("gone.com", dnswire.TypeNS)) != 0 || len(z.Lookup("gone.com", dnswire.TypeDS)) != 0 {
		t.Error("zone records survived Drop")
	}
	// The TLD server now answers NXDOMAIN for it.
	q := dnswire.NewQuery(9, "gone.com", dnswire.TypeNS)
	resp := reg.Server().ServeDNS(q)
	if resp.RCode != dnswire.RCodeNameError {
		t.Errorf("rcode after drop: %v", resp.RCode)
	}
	// Dropping someone else's domain is refused.
	if err := acme.CreateDomain("keep.com", []string{"ns1.op.net"}, nil); err != nil {
		t.Fatal(err)
	}
	if got := code(t, session(t, reg, "rival"), drop("keep.com")); got != epp.CodeAuthorization {
		t.Errorf("cross-registrar delete: %d", got)
	}
}

// zoneKeys returns the DNSKEYs at the registry zone's apex.
func zoneKeys(reg *registry.Registry) []*dnswire.DNSKEY {
	var keys []*dnswire.DNSKEY
	for _, rr := range reg.Server().Zone(reg.TLD()).Lookup(reg.Server().Zone(reg.TLD()).Origin, dnswire.TypeDNSKEY) {
		keys = append(keys, rr.Data.(*dnswire.DNSKEY))
	}
	return keys
}

// negativeSerial asks the registry's server for qname with DO set, requires
// an NXDOMAIN whose one SOA verifies under keys, and returns that SOA's
// serial.
func negativeSerial(t *testing.T, reg *registry.Registry, keys []*dnswire.DNSKEY, qname, step string) uint32 {
	t.Helper()
	q := dnswire.NewQuery(1, qname, dnswire.TypeA)
	q.SetEDNS(dnswire.ReplyUDPPayload, true)
	resp := reg.Server().ServeDNS(q)
	if resp.RCode != dnswire.RCodeNameError {
		t.Fatalf("%s: rcode %v", step, resp.RCode)
	}
	var soa []*dnswire.RR
	var sigs []*dnswire.RRSIG
	for _, rr := range resp.Authority {
		if sig, ok := rr.Data.(*dnswire.RRSIG); ok && sig.TypeCovered == dnswire.TypeSOA {
			sigs = append(sigs, sig)
		} else if rr.Type == dnswire.TypeSOA {
			soa = append(soa, rr)
		}
	}
	if len(soa) != 1 || len(sigs) != 1 {
		t.Fatalf("%s: %d SOA records, %d signatures over them", step, len(soa), len(sigs))
	}
	now := time.Unix(int64(sigs[0].Inception)+1, 0)
	if err := dnssec.VerifyWithAnyKey(soa, sigs[0], keys, now); err != nil {
		t.Errorf("%s: the SOA's signature: %v", step, err)
	}
	return soa[0].Data.(*dnswire.SOA).Serial
}

// TestNegativeAnswerVerifiesAfterDelegationChange: every delegation change
// bumps the TLD zone's serial, and the SOA a DO negative answer carries must
// still verify against the zone's keys afterwards — before the first change,
// after a registration, after a DS upload and after a drop.
func TestNegativeAnswerVerifiesAfterDelegationChange(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	acme := session(t, reg, "acme")
	keys := zoneKeys(reg)
	check := func(step string, serial uint32) {
		t.Helper()
		if got := negativeSerial(t, reg, keys, "no-such-name.com", step); got != serial {
			t.Errorf("%s: serial %d, want %d", step, got, serial)
		}
	}
	check("fresh zone", 1)
	if err := acme.CreateDomain("example.com", []string{"ns1.host.net"}, nil); err != nil {
		t.Fatal(err)
	}
	check("after create", 2)
	ds := &dnswire.DS{KeyTag: 7, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := acme.UpdateDS("example.com", []*dnswire.DS{ds}); err != nil {
		t.Fatal(err)
	}
	check("after DS update", 3)
	if got := code(t, acme, drop("example.com")); got != epp.CodeSuccess {
		t.Fatalf("delete: %d", got)
	}
	check("after delete", 4)
}

// TestDropBumpsSerial: an EPP <delete> changes the TLD zone, so a secondary
// polling the serial must see it move. The serial strictly increases across
// the drop, the dropped name's DO NXDOMAIN carries an SOA that verifies, and
// a zone transfer taken afterwards has the new serial and neither the NS nor
// the DS.
func TestDropBumpsSerial(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	acme := session(t, reg, "acme")
	ds := &dnswire.DS{KeyTag: 3, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := acme.CreateDomain("gone.com", []string{"ns1.op.net"}, []*dnswire.DS{ds}); err != nil {
		t.Fatal(err)
	}
	reg.Server().EnableAXFR(func(string) bool { return true })
	srv := &dnsserver.Server{Handler: reg.Server()}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	transfer := func() *zone.Zone {
		t.Helper()
		client := &dnsserver.AXFRClient{}
		z, err := client.Transfer(context.Background(), srv.Addr(), "com")
		if err != nil {
			t.Fatal(err)
		}
		return z
	}

	before := transfer()
	if len(before.Lookup("gone.com", dnswire.TypeNS)) == 0 || len(before.Lookup("gone.com", dnswire.TypeDS)) == 0 {
		t.Fatal("transfer before the drop lacks the delegation")
	}
	serialBefore := before.SOA().Data.(*dnswire.SOA).Serial

	if got := code(t, acme, drop("gone.com")); got != epp.CodeSuccess {
		t.Fatalf("delete: %d", got)
	}
	served := negativeSerial(t, reg, zoneKeys(reg), "gone.com", "after Drop")
	if served <= serialBefore {
		t.Errorf("serial %d after Drop, %d before: a serial-polling secondary never learns of the removal", served, serialBefore)
	}
	after := transfer()
	if got := after.SOA().Data.(*dnswire.SOA).Serial; got != served {
		t.Errorf("transferred serial %d, served serial %d", got, served)
	}
	if len(after.Lookup("gone.com", dnswire.TypeNS)) != 0 || len(after.Lookup("gone.com", dnswire.TypeDS)) != 0 {
		t.Error("transfer after the drop still carries the delegation")
	}
}
