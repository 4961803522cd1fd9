package diagnose_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/diagnose"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/zone"
)

var testNow = time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)

func newChecker(t *testing.T, h *dnstest.Hierarchy) *diagnose.Checker {
	t.Helper()
	return &diagnose.Checker{
		Exchange:     h.Net,
		ParentServer: dnstest.TLDServerAddr("com"),
		Now:          func() time.Time { return testNow },
	}
}

func hasCode(rep *diagnose.Report, code diagnose.Code) bool {
	for _, f := range rep.Findings {
		if f.Code == code {
			return true
		}
	}
	return false
}

func TestCheckHealthyDomain(t *testing.T) {
	h, err := dnstest.NewHierarchy(testNow, "com")
	if err != nil {
		t.Fatal(err)
	}
	// A fully deployed domain with an NSEC chain.
	child, _, err := h.AddDomain("healthy.com", "ns1.op.net", dnstest.Unsigned)
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
	tz := h.TLDZone("com")
	dss, _ := signer.DSRecords("healthy.com", dnswire.DigestSHA256)
	for _, ds := range dss {
		tz.MustAdd(dnswire.NewRR("healthy.com", 86400, ds))
	}
	if err := h.TLDSigner("com").Sign(tz); err != nil {
		t.Fatal(err)
	}

	rep, err := newChecker(t, h).Check(context.Background(), "healthy.com")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deployment != dnssec.DeploymentFull {
		t.Errorf("deployment: %v", rep.Deployment)
	}
	if len(rep.Errors()) != 0 {
		t.Errorf("errors on healthy domain: %+v", rep.Errors())
	}
	if !hasCode(rep, diagnose.CodeHealthy) {
		t.Errorf("missing CHAIN_OK: %+v", rep.Findings)
	}
	if hasCode(rep, diagnose.CodeNoDenial) {
		t.Error("NSEC zone flagged for missing denial")
	}
}

func TestCheckMisconfigurations(t *testing.T) {
	h, err := dnstest.NewHierarchy(testNow, "com")
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []struct {
		name string
		mode dnstest.DomainMode
	}{
		{"plain.com", dnstest.Unsigned},
		{"partial.com", dnstest.Partial},
		{"full.com", dnstest.Full},
		{"bogus.com", dnstest.BogusDS},
	} {
		if _, _, err := h.AddDomain(d.name, "ns1.op.net", d.mode); err != nil {
			t.Fatal(err)
		}
	}
	c := newChecker(t, h)
	ctx := context.Background()

	cases := []struct {
		domain     string
		deployment dnssec.Deployment
		code       diagnose.Code
		severity   diagnose.Severity
	}{
		{"plain.com", dnssec.DeploymentNone, diagnose.CodeUnsigned, diagnose.Info},
		{"partial.com", dnssec.DeploymentPartial, diagnose.CodePartial, diagnose.Error},
		{"bogus.com", dnssec.DeploymentBroken, diagnose.CodeDSNoMatch, diagnose.Error},
	}
	for _, tc := range cases {
		rep, err := c.Check(ctx, tc.domain)
		if err != nil {
			t.Fatalf("%s: %v", tc.domain, err)
		}
		if rep.Deployment != tc.deployment {
			t.Errorf("%s: deployment %v, want %v", tc.domain, rep.Deployment, tc.deployment)
		}
		if !hasCode(rep, tc.code) {
			t.Errorf("%s: missing %s in %+v", tc.domain, tc.code, rep.Findings)
		}
	}
	// full.com is signed WITHOUT a denial chain: warn.
	rep, err := c.Check(ctx, "full.com")
	if err != nil {
		t.Fatal(err)
	}
	if rep.Deployment != dnssec.DeploymentFull {
		t.Errorf("full.com: %v", rep.Deployment)
	}
	if !hasCode(rep, diagnose.CodeNoDenial) {
		t.Errorf("full.com: missing NO_DENIAL_CHAIN warning: %+v", rep.Findings)
	}
	// Unregistered domain.
	rep, err = c.Check(ctx, "ghost.com")
	if err != nil {
		t.Fatal(err)
	}
	if !hasCode(rep, diagnose.CodeNoDelegation) {
		t.Errorf("ghost.com: %+v", rep.Findings)
	}
}

func TestCheckExpiredSignature(t *testing.T) {
	h, err := dnstest.NewHierarchy(testNow, "com")
	if err != nil {
		t.Fatal(err)
	}
	child, _, err := h.AddDomain("stale.com", "ns1.op.net", dnstest.Unsigned)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := zone.NewSigner(dnswire.AlgED25519, testNow)
	if err != nil {
		t.Fatal(err)
	}
	signer.Inception = testNow.AddDate(0, -3, 0)
	signer.Expiration = testNow.AddDate(0, -1, 0)
	if err := signer.Sign(child); err != nil {
		t.Fatal(err)
	}
	tz := h.TLDZone("com")
	dss, _ := signer.DSRecords("stale.com", dnswire.DigestSHA256)
	for _, ds := range dss {
		tz.MustAdd(dnswire.NewRR("stale.com", 86400, ds))
	}
	if err := h.TLDSigner("com").Sign(tz); err != nil {
		t.Fatal(err)
	}
	rep, err := newChecker(t, h).Check(context.Background(), "stale.com")
	if err != nil {
		t.Fatal(err)
	}
	if !hasCode(rep, diagnose.CodeSigExpired) {
		t.Errorf("missing RRSIG_EXPIRED: %+v", rep.Findings)
	}
	if rep.Deployment != dnssec.DeploymentBroken {
		t.Errorf("deployment: %v", rep.Deployment)
	}
}

func TestCheckOrphanDS(t *testing.T) {
	h, err := dnstest.NewHierarchy(testNow, "com")
	if err != nil {
		t.Fatal(err)
	}
	// Unsigned zone behind a DS record: the chat-misapply / stale-DS case.
	if _, _, err := h.AddDomain("orphan.com", "ns1.op.net", dnstest.Unsigned); err != nil {
		t.Fatal(err)
	}
	tz := h.TLDZone("com")
	tz.MustAdd(dnswire.NewRR("orphan.com", 86400, &dnswire.DS{
		KeyTag: 1, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32),
	}))
	if err := h.TLDSigner("com").Sign(tz); err != nil {
		t.Fatal(err)
	}
	rep, err := newChecker(t, h).Check(context.Background(), "orphan.com")
	if err != nil {
		t.Fatal(err)
	}
	if !hasCode(rep, diagnose.CodeDSOrphan) {
		t.Errorf("missing DS_WITHOUT_DNSKEY: %+v", rep.Findings)
	}
}

func TestCheckWrongSigner(t *testing.T) {
	h, err := dnstest.NewHierarchy(testNow, "com")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.AddDomain("rolled.com", "ns1.op.net", dnstest.WrongSigner); err != nil {
		t.Fatal(err)
	}
	rep, err := newChecker(t, h).Check(context.Background(), "rolled.com")
	if err != nil {
		t.Fatal(err)
	}
	if !hasCode(rep, diagnose.CodeWrongSigner) || len(rep.Errors()) != 1 {
		t.Errorf("want DNSKEY_WRONG_SIGNER as the one error: %+v", rep.Findings)
	}
	if rep.Deployment != dnssec.DeploymentBroken {
		t.Errorf("deployment: %v", rep.Deployment)
	}
}

// TestCheckUnobservedIsAnError: a domain the checker could not observe whole
// gets no report. A parent that times out on the DS question must not turn a
// full deployment into PARTIAL_NO_DS, nor dark nameservers a signed zone into
// UNSIGNED or DS_WITHOUT_DNSKEY.
func TestCheckUnobservedIsAnError(t *testing.T) {
	h, err := dnstest.NewHierarchy(testNow, "com")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.AddDomain("full.com", "ns1.op.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	parent := dnstest.TLDServerAddr("com")
	for _, tc := range []struct {
		name string
		rule faultnet.Rule
		only dnswire.Type // the rule applies to questions of this type
	}{
		{"parent times out on DS", faultnet.Rule{Pattern: parent, Timeout: 1}, dnswire.TypeDS},
		{"parent answers DS with SERVFAIL", faultnet.Rule{Pattern: parent, ServFail: 1}, dnswire.TypeDS},
		{"every nameserver dark", faultnet.Rule{Pattern: "ns1.op.net", Timeout: 1}, dnswire.TypeDNSKEY},
	} {
		faulty := faultnet.New(h.Net, 1, nil, tc.rule)
		var fired atomic.Bool
		c := newChecker(t, h)
		c.Exchange = exchange.Func(func(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
			if q.Questions[0].Type != tc.only {
				return h.Net.Exchange(ctx, server, q)
			}
			resp, err := faulty.Exchange(ctx, server, q)
			var fault *faultnet.FaultError
			if errors.As(err, &fault) || (err == nil && resp.RCode == dnswire.RCodeServerFailure) {
				fired.Store(true)
			}
			return resp, err
		})
		rep, err := c.Check(context.Background(), "full.com")
		if err == nil {
			t.Errorf("%s: got a report (%s, %+v), want an error", tc.name, rep.Deployment, rep.Findings)
		}
		if !fired.Load() {
			t.Errorf("%s: the rule never fired", tc.name)
		}
	}
}
