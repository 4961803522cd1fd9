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
	e, err := ecosystem.New(ecosystem.Config{
		TLDs: tlds,
		Incentives: map[string]*registry.Incentive{
			"nl": {DiscountPerYear: 0.28, MaxFailures: 14, WindowDays: 180},
		},
		CDSTLDs: map[string]bool{"com": true},
	})
	if err != nil {
		t.Fatal(err)
	}
	return e
}

func TestRegisterAndDelegation(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	reg.Accredit("acme")
	if err := reg.Register("acme", "example.com", []string{"ns1.host.net", "NS2.Host.NET", "ns1.host.net"}); err != nil {
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
	if err := reg.Register("stranger", "x.com", []string{"ns1.x.net"}); !errors.Is(err, registry.ErrNotAccredited) {
		t.Errorf("unaccredited register: %v", err)
	}
	reg.Accredit("acme")
	reg.Accredit("rival")
	if err := reg.Register("acme", "x.com", []string{"ns1.x.net"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Register("acme", "x.com", []string{"ns1.x.net"}); !errors.Is(err, registry.ErrAlreadyExists) {
		t.Errorf("duplicate register: %v", err)
	}
	if err := reg.SetNS("rival", "x.com", []string{"ns1.evil.net"}); !errors.Is(err, registry.ErrWrongRegistrar) {
		t.Errorf("cross-registrar SetNS: %v", err)
	}
	if err := reg.Register("acme", "x.org", []string{"ns1.x.net"}); !errors.Is(err, registry.ErrOutsideTLD) {
		t.Errorf("out-of-TLD register: %v", err)
	}
	if err := reg.Register("acme", "a.b.com", []string{"ns1.x.net"}); !errors.Is(err, registry.ErrOutsideTLD) {
		t.Errorf("third-level register: %v", err)
	}
	if err := reg.SetNS("acme", "x.com", nil); !errors.Is(err, registry.ErrEmptyNameservers) {
		t.Errorf("empty NS: %v", err)
	}
}

func TestDSLifecycle(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	reg.Accredit("acme")
	if err := reg.Register("acme", "signed.com", []string{"ns1.op.net"}); err != nil {
		t.Fatal(err)
	}
	ds := &dnswire.DS{KeyTag: 1, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := reg.SetDS("acme", "signed.com", []*dnswire.DS{ds}); err != nil {
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
	if err := reg.DeleteDS("acme", "signed.com"); err != nil {
		t.Fatal(err)
	}
	if len(z.Lookup("signed.com", dnswire.TypeDS)) != 0 {
		t.Error("DS not removed from zone")
	}
	if len(z.Lookup("signed.com", dnswire.TypeNS)) == 0 {
		t.Error("delegation lost on DS removal")
	}
}

func TestTransferAndRenew(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	reg.Accredit("a")
	reg.Accredit("b")
	if err := reg.Register("a", "move.com", []string{"ns1.op.net"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.TransferRegistrar("a", "b", "move.com"); err != nil {
		t.Fatal(err)
	}
	r, _ := reg.Registration("move.com")
	if r.RegistrarID != "b" {
		t.Errorf("registrar after transfer: %s", r.RegistrarID)
	}
	before := r.Expires
	if err := reg.Renew("b", "move.com"); err != nil {
		t.Fatal(err)
	}
	r, _ = reg.Registration("move.com")
	if r.Expires != before+365 {
		t.Errorf("renewal: %d -> %d", before, r.Expires)
	}
	if err := reg.TransferRegistrar("b", "ghost", "move.com"); !errors.Is(err, registry.ErrNotAccredited) {
		t.Errorf("transfer to unaccredited: %v", err)
	}
}

// addSignedDomain wires a real signed child zone on the ecosystem network
// and registers it with a correct (or garbage) DS.
func addSignedDomain(t *testing.T, e *ecosystem.Ecosystem, reg *registry.Registry, registrarID, domain, nsHost string, goodDS bool) *zone.Signer {
	t.Helper()
	z := zone.New(domain)
	z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.SOA{
		MName: nsHost, RName: "hostmaster." + domain,
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.NS{Host: nsHost}))
	signer, err := zone.NewSigner(dnswire.AlgED25519, e.Clock.Day().Time())
	if err != nil {
		t.Fatal(err)
	}
	signer.Expiration = simtime.End.Time().AddDate(1, 0, 0)
	if err := signer.Sign(z); err != nil {
		t.Fatal(err)
	}
	srv := dnstestServer(e, nsHost)
	srv.AddZone(z)
	if err := reg.Register(registrarID, domain, []string{nsHost}); err != nil {
		t.Fatal(err)
	}
	var ds []*dnswire.DS
	if goodDS {
		ds, err = signer.DSRecords(domain, dnswire.DigestSHA256)
		if err != nil {
			t.Fatal(err)
		}
	} else {
		ds = []*dnswire.DS{{KeyTag: 9, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}}
	}
	if err := reg.SetDS(registrarID, domain, ds); err != nil {
		t.Fatal(err)
	}
	return signer
}

// dnstestServer fetches or creates an authoritative server at nsHost.
func dnstestServer(e *ecosystem.Ecosystem, nsHost string) *dnsserver.Authoritative {
	if h := e.Net.Lookup(nsHost); h != nil {
		return h.(*dnsserver.Authoritative)
	}
	srv := dnsserver.NewAuthoritative()
	e.Net.Register(nsHost, srv)
	return srv
}

func TestHealthCheckIncentives(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["nl"]
	reg.Accredit("dutchreg")
	reg.Accredit("sloppyreg")
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
	reg.Accredit("flaky")
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
	reg.Accredit("acme")
	signer := addSignedDomain(t, e, reg, "acme", "roll.com", "ns1.roll.net", true)

	// The child publishes a CDS for a NEW key (simulating a rollover): the
	// new KSK signs the zone, the old DS still references the old key.
	z := dnstestServer(e, "ns1.roll.net").Zone("roll.com")
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
	reg.Accredit("acme")

	// A signed domain with NO DS (partial deployment) publishing CDS.
	z := zone.New("boot.com")
	z.MustAdd(dnswire.NewRR("boot.com", 3600, &dnswire.SOA{
		MName: "ns1.boot.net", RName: "hostmaster.boot.com",
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	z.MustAdd(dnswire.NewRR("boot.com", 3600, &dnswire.NS{Host: "ns1.boot.net"}))
	signer, err := zone.NewSigner(dnswire.AlgED25519, e.Clock.Day().Time())
	if err != nil {
		t.Fatal(err)
	}
	signer.Expiration = simtime.End.Time().AddDate(1, 0, 0)
	if err := signer.Sign(z); err != nil {
		t.Fatal(err)
	}
	if err := signer.PublishCDS(z, dnswire.DigestSHA256); err != nil {
		t.Fatal(err)
	}
	dnstestServer(e, "ns1.boot.net").AddZone(z)
	if err := reg.Register("acme", "boot.com", []string{"ns1.boot.net"}); err != nil {
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
	reg.Accredit("acme")
	if err := reg.Register("acme", "gone.com", []string{"ns1.op.net"}); err != nil {
		t.Fatal(err)
	}
	ds := &dnswire.DS{KeyTag: 3, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := reg.SetDS("acme", "gone.com", []*dnswire.DS{ds}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("acme", "gone.com"); err != nil {
		t.Fatal(err)
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
	reg.Accredit("rival")
	if err := reg.Register("acme", "keep.com", []string{"ns1.op.net"}); err != nil {
		t.Fatal(err)
	}
	if err := reg.Drop("rival", "keep.com"); !errors.Is(err, registry.ErrWrongRegistrar) {
		t.Errorf("cross-registrar drop: %v", err)
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
	reg.Accredit("acme")
	keys := zoneKeys(reg)
	check := func(step string, serial uint32) {
		t.Helper()
		if got := negativeSerial(t, reg, keys, "no-such-name.com", step); got != serial {
			t.Errorf("%s: serial %d, want %d", step, got, serial)
		}
	}
	check("fresh zone", 1)
	if err := reg.Register("acme", "example.com", []string{"ns1.host.net"}); err != nil {
		t.Fatal(err)
	}
	check("after Register", 2)
	ds := &dnswire.DS{KeyTag: 7, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := reg.SetDS("acme", "example.com", []*dnswire.DS{ds}); err != nil {
		t.Fatal(err)
	}
	check("after SetDS", 3)
	if err := reg.Drop("acme", "example.com"); err != nil {
		t.Fatal(err)
	}
	check("after Drop", 4)
}

// TestDropBumpsSerial: an EPP <delete> changes the TLD zone, so a secondary
// polling the serial must see it move. The serial strictly increases across
// the drop, the dropped name's DO NXDOMAIN carries an SOA that verifies, and
// a zone transfer taken afterwards has the new serial and neither the NS nor
// the DS.
func TestDropBumpsSerial(t *testing.T) {
	e := newEco(t)
	reg := e.Registries["com"]
	reg.Accredit("acme")
	if err := reg.Register("acme", "gone.com", []string{"ns1.op.net"}); err != nil {
		t.Fatal(err)
	}
	ds := &dnswire.DS{KeyTag: 3, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := reg.SetDS("acme", "gone.com", []*dnswire.DS{ds}); err != nil {
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
		client := &dnsserver.AXFRClient{Timeout: 5 * time.Second}
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

	if err := reg.Drop("acme", "gone.com"); err != nil {
		t.Fatal(err)
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
