package tldsim

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// fastRetry is a retry policy with microsecond backoff so fault tests spend
// their time measuring, not sleeping.
func fastRetry(attempts int) retry.Policy {
	return retry.Policy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
}

func scanTargets(sample []DomainState) []scan.Target {
	targets := make([]scan.Target, 0, len(sample))
	for _, d := range sample {
		targets = append(targets, scan.Target{Domain: d.Name, TLD: d.TLD})
	}
	return targets
}

func newScanner(t *testing.T, mat *Materialized, cfg scan.Config) *scan.Scanner {
	t.Helper()
	cfg.TLDServers = mat.TLDServers
	cfg.Workers = 8
	cfg.Clock = func() simtime.Day { return mat.Day }
	s, err := scan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// recordKey summarizes the classification-relevant fields of a record.
type recordKey struct {
	operator                             string
	hasKey, hasSig, hasDS, valid, failed bool
}

func classifications(snap *dataset.Snapshot) map[string]recordKey {
	out := make(map[string]recordKey, len(snap.Records))
	for i := range snap.Records {
		r := &snap.Records[i]
		out[r.Domain] = recordKey{
			operator: r.Operator,
			hasKey:   r.HasDNSKEY, hasSig: r.HasRRSIG, hasDS: r.HasDS,
			valid: r.ChainValid, failed: r.Failed,
		}
	}
	return out
}

// TestScanUnderFaultsMatchesCleanRun is the acceptance drill for the
// resilient scan path: 20% packet loss on half the DNS operators must cost
// retries, never records. Every domain classifies identically to a
// fault-free sweep, and the health report accounts for every injected
// fault: each one was either retried past or ended a failed exchange.
func TestScanUnderFaultsMatchesCleanRun(t *testing.T) {
	w := testWorld(t)
	sample := w.Sample(150, 9)
	mat, err := Materialize(simtime.End, sample)
	if err != nil {
		t.Fatal(err)
	}
	targets := scanTargets(sample)

	clean := newScanner(t, mat, scan.Config{Exchange: mat.Net})
	cleanSnap, cleanHealth, err := clean.ScanDay(context.Background(), simtime.End, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(cleanHealth.ByClass) != 0 || cleanHealth.Measured != len(targets) {
		t.Fatalf("clean baseline incomplete: %s", cleanHealth)
	}

	rules, flaky := LossyOperatorsSource(w.SampleSource(150, 9), 0.5, 0.2, 5)
	if len(flaky) == 0 || len(rules) != len(flaky) {
		t.Fatalf("lossy operator selection: %d rules for %d operators", len(rules), len(flaky))
	}
	inj := faultnet.New(mat.Net, 5, func() simtime.Day { return mat.Day }, rules...)
	var injected atomic.Int64
	counted := exchange.Func(func(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
		resp, err := inj.Exchange(ctx, server, q)
		if fault := new(faultnet.FaultError); errors.As(err, &fault) {
			injected.Add(1)
			if fault.Class != faultnet.ClassLoss {
				t.Errorf("injected %s, want loss only", fault.Class)
			}
		}
		return resp, err
	})
	faulty := newScanner(t, mat, scan.Config{Exchange: counted, Retry: fastRetry(4)})
	snap, health, err := faulty.ScanDay(context.Background(), simtime.End, targets)
	if err != nil {
		t.Fatal(err)
	}

	// Every reachable domain measured, none silently dropped.
	if len(health.ByClass) != 0 {
		t.Fatalf("faulty sweep incomplete: %s", health)
	}
	if health.Measured != len(targets) || health.Targets != len(targets) {
		t.Fatalf("measured %d of %d targets: %s", health.Measured, len(targets), health)
	}

	// Identical classification, domain by domain.
	want := classifications(cleanSnap)
	got := classifications(snap)
	if len(got) != len(want) {
		t.Fatalf("record count: %d vs clean %d", len(got), len(want))
	}
	for domain, w := range want {
		if g, ok := got[domain]; !ok {
			t.Errorf("%s missing from faulty sweep", domain)
		} else if g != w {
			t.Errorf("%s classified %+v under faults, %+v clean", domain, g, w)
		}
	}

	// The injector did interfere, and the health report accounts for every
	// single injected fault: a loss either triggered a retry or ended a
	// failed exchange — nothing vanished.
	if injected.Load() == 0 {
		t.Fatal("no faults injected; the drill exercised nothing")
	}
	if rc := health.Exchange.Retry; rc.Retries+rc.Failures != injected.Load() {
		t.Errorf("accounting: %d retries + %d failed exchanges != %d injected faults",
			rc.Retries, rc.Failures, injected.Load())
	}
}

// TestOperatorOutageSurfacesAsFailedRecords puts one operator's nameserver
// into a scheduled dark window covering the measurement day: its domains
// must come back as Failed placeholder records with a timeout class —
// itemized in the health report, not silently missing — while every other
// domain still measures.
func TestOperatorOutageSurfacesAsFailedRecords(t *testing.T) {
	w := testWorld(t)
	sample := w.Sample(80, 3)
	mat, err := Materialize(simtime.End, sample)
	if err != nil {
		t.Fatal(err)
	}
	dark := sample[0].Operator
	darkDomains := map[string]bool{}
	for _, d := range sample {
		if d.Operator == dark {
			darkDomains[d.Name] = true
		}
	}
	inj := faultnet.New(mat.Net, 1, func() simtime.Day { return mat.Day },
		faultnet.Rule{Pattern: NSHostOf(dark), OutageFrom: simtime.End - 1, OutageTo: simtime.End + 1})
	scanner := newScanner(t, mat, scan.Config{Exchange: inj, Retry: fastRetry(2)})
	snap, health, err := scanner.ScanDay(context.Background(), simtime.End, scanTargets(sample))
	if err != nil {
		t.Fatal(err)
	}

	if len(health.ByClass) == 0 {
		t.Fatal("outage went unnoticed: health reports a complete sweep")
	}
	if len(health.Failures) != len(darkDomains) {
		t.Fatalf("%d failures, want %d (operator %s domains): %s",
			len(health.Failures), len(darkDomains), dark, health)
	}
	for _, f := range health.Failures {
		if !darkDomains[f.Target.Domain] {
			t.Errorf("unexpected failure outside the dark operator: %+v", f)
		}
		if f.Class != scan.FailTimeout || f.Stage != "dnskey" {
			t.Errorf("failure %s: class=%s stage=%s, want timeout at dnskey", f.Target.Domain, f.Class, f.Stage)
		}
	}
	if health.ByClass[scan.FailTimeout] != len(darkDomains) {
		t.Errorf("ByClass[timeout] = %d, want %d", health.ByClass[scan.FailTimeout], len(darkDomains))
	}
	if health.Measured != len(sample)-len(darkDomains) {
		t.Errorf("measured %d, want %d", health.Measured, len(sample)-len(darkDomains))
	}

	// The snapshot carries the gap markers: one Failed record per dark
	// domain, and analysis-facing code can filter them via Measured().
	if len(snap.Records) != len(sample) {
		t.Fatalf("snapshot has %d records, want %d (failed placeholders included)", len(snap.Records), len(sample))
	}
	if snap.MeasuredCount() != len(sample)-len(darkDomains) {
		t.Errorf("MeasuredCount = %d, want %d", snap.MeasuredCount(), len(sample)-len(darkDomains))
	}
	for i := range snap.Records {
		r := &snap.Records[i]
		if darkDomains[r.Domain] != r.Failed {
			t.Errorf("%s: Failed=%v, dark=%v", r.Domain, r.Failed, darkDomains[r.Domain])
		}
		if r.Failed && r.FailReason != string(scan.FailTimeout) {
			t.Errorf("%s: FailReason=%q", r.Domain, r.FailReason)
		}
	}
}
