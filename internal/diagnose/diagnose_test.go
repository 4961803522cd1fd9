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

var postures *dnstest.Hierarchy

// postureHierarchy is one hierarchy, built once, with a domain in each
// posture the checker reports on: plain, partial, full (signed without a
// denial chain), bogus, rolled (signed by the wrong key) and orphan (an
// unsigned zone behind a DS record: the chat-misapply, stale-DS case) by
// dnstest's modes; healthy (signed with an NSEC chain) and stale (its
// signatures expired a month ago) by signers of their own, their DS at
// the parent.
func postureHierarchy(t *testing.T) *dnstest.Hierarchy {
	t.Helper()
	if postures != nil {
		return postures
	}
	h, err := dnstest.NewHierarchy(testNow, "com")
	if err != nil {
		t.Fatal(err)
	}
	for name, mode := range map[string]dnstest.DomainMode{
		"plain.com": dnstest.Unsigned, "partial.com": dnstest.Partial, "full.com": dnstest.Full,
		"bogus.com": dnstest.BogusDS, "rolled.com": dnstest.WrongSigner, "orphan.com": dnstest.Unsigned,
	} {
		if _, _, err := h.AddDomain(name, "ns1.op.net", mode); err != nil {
			t.Fatal(err)
		}
	}
	tz := h.TLDZone("com")
	for domain, configure := range map[string]func(*zone.Signer){
		"healthy.com": func(s *zone.Signer) { s.AddNSEC = true },
		"stale.com":   func(s *zone.Signer) { s.Inception, s.Expiration = testNow.AddDate(0, -3, 0), testNow.AddDate(0, -1, 0) },
	} {
		child, _, err := h.AddDomain(domain, "ns1.op.net", dnstest.Unsigned)
		if err != nil {
			t.Fatal(err)
		}
		signer, err := zone.NewSigner(dnswire.AlgED25519, testNow)
		if err != nil {
			t.Fatal(err)
		}
		configure(signer)
		if err := signer.Sign(child); err != nil {
			t.Fatal(err)
		}
		dss, _ := signer.DSRecords(domain, dnswire.DigestSHA256)
		for _, ds := range dss {
			tz.MustAdd(dnswire.NewRR(domain, 86400, ds))
		}
	}
	tz.MustAdd(dnswire.NewRR("orphan.com", 86400, &dnswire.DS{
		KeyTag: 1, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32),
	}))
	if err := h.TLDSigner("com").Sign(tz); err != nil {
		t.Fatal(err)
	}
	postures = h
	return h
}

// anyDeployment is a findings case that leaves the deployment class open.
const anyDeployment = dnssec.Deployment(-1)

// findings is what the checker must report of a domain of
// postureHierarchy: its deployment class, findings that must be there and
// findings that must not, and, unless -1, how many errors.
type findings struct {
	domain     string
	deployment dnssec.Deployment
	codes      []diagnose.Code
	absent     []diagnose.Code
	errors     int
}

func checkFindings(t *testing.T, cases ...findings) {
	t.Helper()
	c := newChecker(t, postureHierarchy(t))
	for _, tc := range cases {
		rep, err := c.Check(context.Background(), tc.domain)
		if err != nil {
			t.Fatalf("%s: %v", tc.domain, err)
		}
		if tc.deployment != anyDeployment && rep.Deployment != tc.deployment {
			t.Errorf("%s: deployment %v, want %v", tc.domain, rep.Deployment, tc.deployment)
		}
		for _, code := range tc.codes {
			if !hasCode(rep, code) {
				t.Errorf("%s: missing %s in %+v", tc.domain, code, rep.Findings)
			}
		}
		for _, code := range tc.absent {
			if hasCode(rep, code) {
				t.Errorf("%s: %s in %+v", tc.domain, code, rep.Findings)
			}
		}
		if tc.errors >= 0 && len(rep.Errors()) != tc.errors {
			t.Errorf("%s: %d error(s), want %d: %+v", tc.domain, len(rep.Errors()), tc.errors, rep.Errors())
		}
	}
}

func TestCheckHealthyDomain(t *testing.T) {
	checkFindings(t, findings{"healthy.com", dnssec.DeploymentFull, []diagnose.Code{diagnose.CodeHealthy}, []diagnose.Code{diagnose.CodeNoDenial}, 0})
}

func TestCheckMisconfigurations(t *testing.T) {
	checkFindings(t,
		findings{"plain.com", dnssec.DeploymentNone, []diagnose.Code{diagnose.CodeUnsigned}, nil, -1},
		findings{"partial.com", dnssec.DeploymentPartial, []diagnose.Code{diagnose.CodePartial}, nil, -1},
		findings{"bogus.com", dnssec.DeploymentBroken, []diagnose.Code{diagnose.CodeDSNoMatch}, nil, -1},
		// Signed without a denial chain: a warning.
		findings{"full.com", dnssec.DeploymentFull, []diagnose.Code{diagnose.CodeNoDenial}, nil, -1},
		findings{"ghost.com", anyDeployment, []diagnose.Code{diagnose.CodeNoDelegation}, nil, -1},
	)
}

func TestCheckExpiredSignature(t *testing.T) {
	checkFindings(t, findings{"stale.com", dnssec.DeploymentBroken, []diagnose.Code{diagnose.CodeSigExpired}, nil, -1})
}

func TestCheckOrphanDS(t *testing.T) {
	checkFindings(t, findings{"orphan.com", anyDeployment, []diagnose.Code{diagnose.CodeDSOrphan}, nil, -1})
}

func TestCheckWrongSigner(t *testing.T) {
	checkFindings(t, findings{"rolled.com", dnssec.DeploymentBroken, []diagnose.Code{diagnose.CodeWrongSigner}, nil, 1})
}

// TestCheckUnobservedIsAnError: a domain the checker could not observe whole
// gets no report. A parent that times out on the DS question must not turn a
// full deployment into PARTIAL_NO_DS, nor dark nameservers a signed zone into
// UNSIGNED or DS_WITHOUT_DNSKEY.
func TestCheckUnobservedIsAnError(t *testing.T) {
	h := postureHierarchy(t)
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
