package resolver_test

import (
	"context"
	"errors"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/resolver"
	"securepki.org/registrarsec/internal/zone"
)

var testNow = time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)

func newWorld(t *testing.T) *dnstest.Hierarchy {
	t.Helper()
	h, err := dnstest.NewHierarchy(testNow, "com", "org", "nl")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		ns   string
		mode dnstest.DomainMode
	}{
		{"signed.com", "ns1.goodreg.net", dnstest.Full},
		{"partial.com", "ns1.goodreg.net", dnstest.Partial},
		{"plain.com", "ns1.cheapreg.net", dnstest.Unsigned},
		{"broken.com", "ns1.sloppyreg.net", dnstest.BogusDS},
		{"signed.org", "ns1.goodreg.net", dnstest.Full},
	} {
		if _, _, err := h.AddDomain(d.name, d.ns, d.mode); err != nil {
			t.Fatalf("AddDomain(%s): %v", d.name, err)
		}
	}
	return h
}

func TestIterativeResolution(t *testing.T) {
	h := newWorld(t)
	r := h.Resolver(false)
	ctx := context.Background()
	res, err := r.Resolve(ctx, "www.signed.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeSuccess || len(res.Answers) == 0 {
		t.Fatalf("rcode=%v answers=%d", res.RCode, len(res.Answers))
	}
	wantCuts := []string{"", "com", "signed.com"}
	if len(res.Cuts) != len(wantCuts) {
		t.Fatalf("cuts = %v", res.Cuts)
	}
	for i := range wantCuts {
		if res.Cuts[i] != wantCuts[i] {
			t.Errorf("cut %d = %q, want %q", i, res.Cuts[i], wantCuts[i])
		}
	}
	if res.Server != "ns1.goodreg.net" {
		t.Errorf("final server %q", res.Server)
	}
}

func TestResolveNXDomain(t *testing.T) {
	h := newWorld(t)
	r := h.Resolver(false)
	res, err := r.Resolve(context.Background(), "ghost.signed.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNameError {
		t.Errorf("rcode = %v", res.RCode)
	}
}

func TestResolveUnregisteredDomain(t *testing.T) {
	h := newWorld(t)
	r := h.Resolver(false)
	// never-registered.com: the TLD answers NXDOMAIN authoritatively.
	res, err := r.Resolve(context.Background(), "never-registered.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeNameError {
		t.Errorf("rcode = %v", res.RCode)
	}
}

func TestResolveDSFromParent(t *testing.T) {
	h := newWorld(t)
	r := h.Resolver(true)
	res, err := r.Resolve(context.Background(), "signed.com", dnswire.TypeDS)
	if err != nil {
		t.Fatal(err)
	}
	set := res.RRSet("signed.com", dnswire.TypeDS)
	if len(set.RRs) == 0 {
		t.Fatal("no DS returned")
	}
	if len(set.Sigs) == 0 {
		t.Error("DS RRset unsigned")
	}
	// Partial domain: no DS.
	res, err = r.Resolve(context.Background(), "partial.com", dnswire.TypeDS)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(res.RRSet("partial.com", dnswire.TypeDS).RRs); n != 0 {
		t.Errorf("partial.com has %d DS records", n)
	}
}

func TestResolverCacheAndCounters(t *testing.T) {
	h := newWorld(t)
	r := h.Resolver(false)
	ctx := context.Background()
	if _, err := r.Resolve(ctx, "www.signed.com", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	q1 := r.Queries()
	// Second domain under the same TLD: root referral should be cached.
	if _, err := r.Resolve(ctx, "www.plain.com", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	q2 := r.Queries() - q1
	if q2 >= q1 {
		t.Errorf("no caching benefit: first=%d second=%d", q1, q2)
	}
	r.FlushCache()
	if _, err := r.Resolve(ctx, "www.plain.com", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
}

func TestValidatingLookup(t *testing.T) {
	h := newWorld(t)
	v := h.Validating()
	ctx := context.Background()
	cases := []struct {
		name string
		want dnssec.Status
	}{
		{"www.signed.com", dnssec.Secure},
		{"www.signed.org", dnssec.Secure},
		{"www.partial.com", dnssec.Insecure},
		{"www.plain.com", dnssec.Insecure},
		{"www.broken.com", dnssec.Bogus},
	}
	for _, c := range cases {
		res, chain, err := v.Lookup(ctx, c.name, dnswire.TypeA)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if chain.Status != c.want {
			t.Errorf("%s: status %v (%s), want %v", c.name, chain.Status, chain.Reason, c.want)
		}
		if res.RCode != dnswire.RCodeSuccess {
			t.Errorf("%s: rcode %v", c.name, res.RCode)
		}
	}
}

func TestDeploymentClassificationViaDNS(t *testing.T) {
	h := newWorld(t)
	cases := []struct {
		domain string
		want   dnssec.Deployment
	}{
		{"signed.com", dnssec.DeploymentFull},
		{"partial.com", dnssec.DeploymentPartial},
		{"plain.com", dnssec.DeploymentNone},
		{"broken.com", dnssec.DeploymentBroken},
	}
	for _, c := range cases {
		got, err := h.ValidateDomain(c.domain)
		if err != nil {
			t.Fatalf("%s: %v", c.domain, err)
		}
		if got != c.want {
			t.Errorf("%s: %v, want %v", c.domain, got, c.want)
		}
	}
}

func TestResolveContextCancellation(t *testing.T) {
	h := newWorld(t)
	r := h.Resolver(false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := r.Resolve(ctx, "www.signed.com", dnswire.TypeA); err == nil {
		t.Error("cancelled context did not abort resolution")
	}
}

func TestResolveNoRoots(t *testing.T) {
	r := resolver.New(resolver.Config{Exchange: dnstestNet(t).Net})
	if _, err := r.Resolve(context.Background(), "x.com", dnswire.TypeA); err == nil {
		t.Error("resolution without roots succeeded")
	}
}

func dnstestNet(t *testing.T) *dnstest.Hierarchy {
	t.Helper()
	h, err := dnstest.NewHierarchy(testNow, "com")
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func TestResolverLameDelegation(t *testing.T) {
	h := newWorld(t)
	// Register a domain whose NS host has no server behind it: the
	// resolver must fail with a useful error, not hang or loop.
	tz := h.TLDZone("com")
	tz.MustAdd(dnswire.NewRR("lame.com", 86400, &dnswire.NS{Host: "ns1.gone.example"}))
	if err := h.TLDSigner("com").Sign(tz); err != nil {
		t.Fatal(err)
	}
	r := h.Resolver(false)
	_, err := r.Resolve(context.Background(), "www.lame.com", dnswire.TypeA)
	if err == nil {
		t.Fatal("lame delegation resolved")
	}
}

func TestResolverReferralLoopBounded(t *testing.T) {
	h := newWorld(t)
	// A handler that refers one label deeper on every query, under a name
	// deeper than the chase may go: the resolver must give up after 16
	// referrals.
	qname := strings.Repeat("x.", 30) + "victim.com"
	labels := strings.Split(qname, ".")
	var calls atomic.Int32
	evil := dnsserver.HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		resp := q.Reply()
		cut := strings.Join(labels[len(labels)-int(calls.Add(1)):], ".")
		resp.Authority = append(resp.Authority,
			dnswire.NewRR(cut, 60, &dnswire.NS{Host: "ns1.evil.example"}))
		return resp
	})
	h.Net.Register("ns1.evil.example", evil)
	r := resolver.New(resolver.Config{
		Roots:    []string{"ns1.evil.example"},
		Exchange: h.Net,
	})
	_, err := r.Resolve(context.Background(), qname, dnswire.TypeA)
	if !errors.Is(err, resolver.ErrReferralLoop) || calls.Load() != 16 {
		t.Fatalf("after %d referrals: %v, want %v after 16", calls.Load(), err, resolver.ErrReferralLoop)
	}
}

func TestResolverServfailFailover(t *testing.T) {
	h := newWorld(t)
	// First server SERVFAILs; a second answers. The resolver must fail
	// over rather than surfacing the lame server's error.
	servfail := dnsserver.HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		resp := q.Reply()
		resp.RCode = dnswire.RCodeServerFailure
		return resp
	})
	h.Net.Register("ns-broken.goodreg.net", servfail)
	// Point signed.com's delegation at both servers.
	tz := h.TLDZone("com")
	tz.MustAdd(dnswire.NewRR("signed.com", 86400, &dnswire.NS{Host: "ns-broken.goodreg.net"}))
	if err := h.TLDSigner("com").Sign(tz); err != nil {
		t.Fatal(err)
	}
	r := h.Resolver(false)
	// Multiple attempts to cover both server orderings.
	for i := 0; i < 6; i++ {
		r.FlushCache()
		res, err := r.Resolve(context.Background(), "www.signed.com", dnswire.TypeA)
		if err != nil {
			t.Fatalf("attempt %d: %v", i, err)
		}
		if res.RCode != dnswire.RCodeSuccess {
			t.Fatalf("attempt %d: rcode %v", i, res.RCode)
		}
	}
}

func TestValidatingDenialGrading(t *testing.T) {
	h := newWorld(t)
	// nsec.com: signed WITH an NSEC chain; plain "signed.com" has none.
	child, _, err := h.AddDomain("nsec.com", "ns1.goodreg.net", dnstest.Unsigned)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := zone.NewSigner(dnswire.AlgED25519, testNow)
	if err != nil {
		t.Fatal(err)
	}
	signer.AddNSEC = true
	if err := signer.Sign(child); err != nil {
		t.Fatal(err)
	}
	// Upload the DS so the chain is intact.
	tz := h.TLDZone("com")
	dss, err := signer.DSRecords("nsec.com", dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range dss {
		tz.MustAdd(dnswire.NewRR("nsec.com", 86400, ds))
	}
	if err := h.TLDSigner("com").Sign(tz); err != nil {
		t.Fatal(err)
	}
	// An NSEC3 sibling.
	child3, _, err := h.AddDomain("nsec3.com", "ns1.goodreg.net", dnstest.Unsigned)
	if err != nil {
		t.Fatal(err)
	}
	signer3, err := zone.NewSigner(dnswire.AlgED25519, testNow)
	if err != nil {
		t.Fatal(err)
	}
	signer3.NSEC3 = &dnswire.NSEC3PARAM{HashAlg: dnswire.NSEC3HashSHA1, Iterations: 3, Salt: []byte{0x42}}
	if err := signer3.Sign(child3); err != nil {
		t.Fatal(err)
	}
	dss3, err := signer3.DSRecords("nsec3.com", dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	for _, ds := range dss3 {
		tz.MustAdd(dnswire.NewRR("nsec3.com", 86400, ds))
	}
	if err := h.TLDSigner("com").Sign(tz); err != nil {
		t.Fatal(err)
	}

	v := h.Validating()
	ctx := context.Background()

	// NXDOMAIN in the NSEC zone: authenticated denial → Secure.
	_, chain, err := v.Lookup(ctx, "ghost.nsec.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Status != dnssec.Secure {
		t.Errorf("NSEC NXDOMAIN: %v (%s), want secure", chain.Status, chain.Reason)
	}
	// NODATA (www exists, MX does not) → Secure via type denial.
	_, chain, err = v.Lookup(ctx, "www.nsec.com", dnswire.TypeMX)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Status != dnssec.Secure {
		t.Errorf("NSEC NODATA: %v (%s), want secure", chain.Status, chain.Reason)
	}
	// Same through the NSEC3 zone.
	_, chain, err = v.Lookup(ctx, "ghost.nsec3.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Status != dnssec.Secure {
		t.Errorf("NSEC3 NXDOMAIN: %v (%s), want secure", chain.Status, chain.Reason)
	}
	// A signed zone WITHOUT a denial chain cannot prove the NXDOMAIN:
	// Indeterminate, not Secure.
	_, chain, err = v.Lookup(ctx, "ghost.signed.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Status != dnssec.Indeterminate {
		t.Errorf("no-proof NXDOMAIN: %v (%s), want indeterminate", chain.Status, chain.Reason)
	}
}
