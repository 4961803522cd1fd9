package scan_test

import (
	"bytes"
	"context"
	"reflect"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/ecotest"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/scan"
)

// lossyPasses is how often runLossySweep scans the same day: the first pass
// meets a cold cache, the rest a warm one.
const lossyPasses = 3

// runLossySweep scans the buildWorld population lossyPasses times on one
// day through a fault injector that drops half the queries aimed at domain
// nameservers (the TLD registry servers stay clean), optionally with the
// cache and dedup layers enabled. It returns each pass's snapshot, the cold
// pass's health report and the stack's counters over all passes.
//
// Faults are restricted to the domain NS hosts on purpose: the injector
// only consumes per-question attempt draws for matched servers, so a cache
// hit on a clean-server response cannot shift the fault schedule of any
// faulted query — within a pass the two configurations must observe
// identical network outcomes. On a warm pass the cached stack no longer
// asks the lossy servers what it already holds while the bare stack draws
// fresh faults for them, so equal output there also says that retries and
// resweeps recovered every one of those draws.
func runLossySweep(t *testing.T, cached bool) ([]*dataset.Snapshot, *scan.SweepHealth, exchange.Counters) {
	t.Helper()
	eco, targets := buildWorld(t)
	inj := faultnet.New(nil, 7, nil, faultnet.Rule{Pattern: "*.net", Loss: 0.5})
	// One worker keeps record order a pure function of target order, so
	// the outputs can be compared byte for byte.
	cfg := ecotest.ScanConfig(eco, 1)
	cfg.Middleware = []exchange.Middleware{inj.Middleware()}
	cfg.Retry = retry.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	cfg.MaxResweeps = 2
	if cached {
		cfg.Cache = &exchange.CacheOptions{}
		cfg.Dedup = true
	}
	s, err := scan.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var snaps []*dataset.Snapshot
	var cold *scan.SweepHealth
	for pass := 0; pass < lossyPasses; pass++ {
		snap, health, err := s.ScanDay(context.Background(), eco.Clock.Day(), targets)
		if err != nil {
			t.Fatal(err)
		}
		if pass == 0 {
			cold = health
		}
		snaps = append(snaps, snap)
	}
	return snaps, cold, s.Stack().Counters()
}

// snapshotTSV serializes a canonical snapshot as an archive section.
func snapshotTSV(t *testing.T, snap *dataset.Snapshot) string {
	t.Helper()
	var buf bytes.Buffer
	if err := snap.WriteArchiveSection(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestCachedSweepOutputIdenticalUnderFaults locks in the measurement-layer
// guarantee behind the cache and dedup optimizations: they may only remove
// redundant transport exchanges, never change what a sweep observes. A
// lossy sweep with the full stack enabled must produce a byte-identical
// TSV snapshot to the bare retry-only path on the cold pass and on every
// warm one, and over one cold and two warm passes the stack must at least
// halve the exchanges that reach the transport.
func TestCachedSweepOutputIdenticalUnderFaults(t *testing.T) {
	plain, plainHealth, plainCounters := runLossySweep(t, false)
	cached, cachedHealth, cachedCounters := runLossySweep(t, true)

	// The cold pass's records in the order the sweep left them, which no
	// archive section keeps.
	if !reflect.DeepEqual(plain[0].Records, cached[0].Records) {
		t.Errorf("cache/dedup changed sweep output\n--- uncached ---\n%+v\n--- cached ---\n%+v", plain[0].Records, cached[0].Records)
	}
	// A warm pass resweeps other records than the bare stack does, and a
	// reswept record moves to the end: from here on compare in archive order.
	var want string
	for pass := range plain {
		plain[pass].Canonicalize()
		cached[pass].Canonicalize()
		if pass == 0 {
			want = snapshotTSV(t, plain[0])
		}
		if got := snapshotTSV(t, plain[pass]); got != want {
			t.Errorf("pass %d, uncached: the same day swept again gave different records\n--- pass 0 ---\n%s--- pass %d ---\n%s", pass, want, pass, got)
		}
		if got := snapshotTSV(t, cached[pass]); got != want {
			t.Errorf("pass %d: cache/dedup changed sweep output\n--- uncached ---\n%s--- cached ---\n%s", pass, want, got)
		}
	}
	for class, n := range plainHealth.ByClass {
		if cachedHealth.ByClass[class] != n {
			t.Errorf("failure class %s: %d uncached vs %d cached", class, n, cachedHealth.ByClass[class])
		}
	}
	// The faults must actually have bitten — a clean sweep would make the
	// equality vacuous — and recovery must have exercised the resweep path,
	// which is where the cache earns its keep (re-asked clean queries).
	if plainHealth.Exchange.Retry.Retries == 0 {
		t.Error("no retries: fault injection did not engage")
	}
	if cachedHealth.Resweeps == 0 {
		t.Error("no resweeps: equality never exercised the warm cache")
	}
	if cachedCounters.Cache.Hits == 0 {
		t.Error("cache never hit during the cached sweep")
	}
	if 2*cachedCounters.Transport.Exchanges > plainCounters.Transport.Exchanges {
		t.Errorf("cache saved less than half: %d transport exchanges cached vs %d uncached over %d passes",
			cachedCounters.Transport.Exchanges, plainCounters.Transport.Exchanges, lossyPasses)
	}
}
