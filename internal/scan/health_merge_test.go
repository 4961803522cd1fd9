package scan_test

// Property-style tests for SweepHealth.Merge: aggregating per-shard health
// reports must be a fold that conserves every total and failure class, and
// must not care how the shards were partitioned among workers or in what
// order the partial aggregates arrive — the exact guarantee the
// distributed sweep's per-day and per-worker attribution relies on.

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

var failClasses = []scan.FailClass{
	scan.FailTimeout, scan.FailNoRoute, scan.FailLame, scan.FailNoNS,
	scan.FailTransport, scan.FailUnknownTLD, scan.FailCancelled, scan.FailMalformed,
}

// genHealth fabricates one shard's health report from the rng.
func genHealth(rng *rand.Rand, day simtime.Day, shard int) *scan.SweepHealth {
	h := &scan.SweepHealth{
		Day:          day,
		Targets:      rng.Intn(50),
		Measured:     rng.Intn(50),
		Unregistered: rng.Intn(5),
		Resweeps:     rng.Intn(3),
		ByClass:      make(map[scan.FailClass]int),
		Exchange: exchange.Counters{
			Transport: exchange.TransportCounters{Exchanges: rng.Int63n(1000), Errors: rng.Int63n(50)},
			Cache:     exchange.CacheCounters{Hits: rng.Int63n(300), Misses: rng.Int63n(300)},
			Dedup:     exchange.DedupCounters{Hits: rng.Int63n(100), Misses: rng.Int63n(100)},
			Retry:     exchange.RetryCounters{Retries: rng.Int63n(80), Failures: rng.Int63n(10)},
		},
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		class := failClasses[rng.Intn(len(failClasses))]
		h.Failures = append(h.Failures, scan.Failure{
			Target: scan.Target{Domain: fmt.Sprintf("d%d-%d-%d.com", shard, i, rng.Intn(100)), TLD: "com"},
			Stage:  []string{"ns", "ds", "dnskey"}[rng.Intn(3)],
			Class:  class,
			Err:    "injected",
		})
		h.ByClass[class]++
	}
	for i, n := 0, rng.Intn(3); i < n; i++ {
		h.SkippedUnknownTLD = append(h.SkippedUnknownTLD, fmt.Sprintf("x%d-%d.weird", shard, i))
	}
	return h
}

// mergeAll folds reports into a fresh aggregate.
func mergeAll(day simtime.Day, parts []*scan.SweepHealth) *scan.SweepHealth {
	agg := &scan.SweepHealth{Day: day}
	for _, p := range parts {
		agg.Merge(p)
	}
	return agg
}

// canonical normalizes order-carrying fields so two aggregates built from
// the same multiset of reports compare equal.
func canonical(h *scan.SweepHealth) *scan.SweepHealth {
	c := *h
	c.Failures = append([]scan.Failure(nil), h.Failures...)
	sort.Slice(c.Failures, func(i, j int) bool {
		a, b := c.Failures[i], c.Failures[j]
		if a.Target.Domain != b.Target.Domain {
			return a.Target.Domain < b.Target.Domain
		}
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Class < b.Class
	})
	c.SkippedUnknownTLD = append([]string(nil), h.SkippedUnknownTLD...)
	sort.Strings(c.SkippedUnknownTLD)
	if c.ByClass == nil {
		c.ByClass = make(map[scan.FailClass]int)
	}
	for class, n := range c.ByClass {
		if n == 0 {
			delete(c.ByClass, class)
		}
	}
	return &c
}

func TestSweepHealthMergeOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	day := simtime.Day(100)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(12)
		parts := make([]*scan.SweepHealth, n)
		for i := range parts {
			parts[i] = genHealth(rng, day, i)
		}
		want := canonical(mergeAll(day, parts))
		shuffled := append([]*scan.SweepHealth(nil), parts...)
		rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
		got := canonical(mergeAll(day, shuffled))
		if !reflect.DeepEqual(want, got) {
			t.Fatalf("trial %d: merge order changed the aggregate:\nwant %+v\ngot  %+v", trial, want, got)
		}
	}
}

func TestSweepHealthMergePartitionInvariant(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	day := simtime.Day(200)
	for trial := 0; trial < 50; trial++ {
		n := 1 + rng.Intn(16)
		parts := make([]*scan.SweepHealth, n)
		for i := range parts {
			parts[i] = genHealth(rng, day, i)
		}
		flat := canonical(mergeAll(day, parts))

		// Split the same shards across a random number of "workers", fold
		// each worker's share, then fold the per-worker aggregates — the
		// distributed sweep's two-level aggregation.
		workers := 1 + rng.Intn(n)
		groups := make([][]*scan.SweepHealth, workers)
		for _, p := range parts {
			w := rng.Intn(workers)
			groups[w] = append(groups[w], p)
		}
		var partials []*scan.SweepHealth
		for _, g := range groups {
			partials = append(partials, mergeAll(day, g))
		}
		twoLevel := canonical(mergeAll(day, partials))
		if !reflect.DeepEqual(flat, twoLevel) {
			t.Fatalf("trial %d: partitioning changed the aggregate:\nflat %+v\ntwo-level %+v", trial, flat, twoLevel)
		}

		// Conservation: the aggregate's scalars are exactly the sums.
		var targets, measured, unreg, failures int
		byClass := make(map[scan.FailClass]int)
		for _, p := range parts {
			targets += p.Targets
			measured += p.Measured
			unreg += p.Unregistered
			failures += len(p.Failures)
			for class, c := range p.ByClass {
				byClass[class] += c
			}
		}
		if flat.Targets != targets || flat.Measured != measured || flat.Unregistered != unreg || len(flat.Failures) != failures {
			t.Fatalf("trial %d: totals not conserved: %+v", trial, flat)
		}
		for class, c := range byClass {
			if flat.ByClass[class] != c {
				t.Fatalf("trial %d: class %s not conserved: %d != %d", trial, class, flat.ByClass[class], c)
			}
		}
	}
}

func TestSweepHealthMergeNilAndZero(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	h := genHealth(rng, simtime.Day(5), 0)
	want := canonical(h)
	h.Merge(nil)
	h.Merge(&scan.SweepHealth{Day: simtime.Day(5)})
	if got := canonical(h); !reflect.DeepEqual(want, got) {
		t.Fatalf("nil/zero merge changed the aggregate:\nwant %+v\ngot  %+v", want, got)
	}
}

// Shards re-sweep side by side: two shards that each ran the default two
// passes merged into one day ran two passes, not four.
func TestSweepHealthMergeResweepsByMax(t *testing.T) {
	day := simtime.Day(1)
	agg := mergeAll(day, []*scan.SweepHealth{{Day: day, Resweeps: 2}, {Day: day, Resweeps: 2}, {Day: day, Resweeps: 1}})
	if agg.Resweeps != 2 {
		t.Fatalf("merged Resweeps = %d, want 2 (the most any shard ran)", agg.Resweeps)
	}
}
