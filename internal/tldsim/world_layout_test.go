package tldsim

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
)

// heldObjects is how many heap objects keep() leaves live, everything
// else collected.
func heldObjects[T any](keep func() T) (held int64, kept T) {
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	kept = keep()
	runtime.GC()
	runtime.ReadMemStats(&after)
	return int64(after.HeapObjects) - int64(before.HeapObjects), kept
}

// TestWorldIsPointerFree: what a world costs the allocator and the
// collector is set by its operators, not by its domains. Build may
// allocate a handful of objects per cohort (the cohort's operator name and
// NS host, its intern-table entries, its event-day lists) and, on top of
// that, at most 0.05 per domain — one string per name would be 1.0. A
// built world and the same world loaded back from disk each hold a few
// objects per operator, and differ only by the cohort plan the built one
// carries. Ten times the population at divisor 400 moves none of this.
func TestWorldIsPointerFree(t *testing.T) {
	const perCohort, perOperator, slack = 8, 5, 2000
	for _, div := range []float64{4000, 400} {
		cfg := WorldConfig{Scale: 1 / div, Seed: 1}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		built, w := heldObjects(func() *World {
			w, err := Build(cfg)
			if err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&m1)
			return w
		})
		domains, cohorts, operators := int64(w.Len()), int64(len(w.Cohorts)), int64(w.Index().Operators())

		mallocs := int64(m1.Mallocs - m0.Mallocs)
		if budget := domains/20 + perCohort*cohorts + slack; mallocs > budget {
			t.Errorf("divisor %v: Build made %d allocations for %d domains in %d cohorts, budget %d (0.05 a domain + %d a cohort)",
				div, mallocs, domains, cohorts, budget, perCohort)
		}

		path := filepath.Join(t.TempDir(), "world.rscw")
		if err := w.Save(path); err != nil {
			t.Fatal(err)
		}
		loaded, l := heldObjects(func() *World {
			l, _, err := LoadWorld(path)
			if err != nil {
				t.Fatal(err)
			}
			return l
		})
		defer l.Close()
		bound := perOperator*operators + slack
		if built > bound || loaded > bound {
			t.Errorf("divisor %v: built world holds %d heap objects, loaded %d; bound %d for %d operators (%d domains)",
				div, built, loaded, bound, operators, domains)
		}
		if diff := built - loaded; diff < -bound/2 || diff > bound/2 {
			t.Errorf("divisor %v: built world holds %d heap objects, loaded %d: more than %d apart", div, built, loaded, bound/2)
		}
		runtime.KeepAlive(w)
	}
}

// TestPermPrefixMatchesRandPerm: the sample draw is rand.Perm's, element
// for element, whichever element width shuffles it — a different draw
// would change every sweep archive.
func TestPermPrefixMatchesRandPerm(t *testing.T) {
	for _, seed := range []int64{1, 7, 1234, -5} {
		for _, total := range []int{1, 2, 17, 1000, 70001} {
			for _, n := range []int{0, 1, total / 3, total} {
				want := rand.New(rand.NewSource(seed)).Perm(total)[:n]
				for name, got := range map[string][]int{
					"permPrefix":            permPrefix(rand.New(rand.NewSource(seed)), total, n),
					"shufflePrefix[uint32]": shufflePrefix[uint32](rand.New(rand.NewSource(seed)), total, n),
					"shufflePrefix[int]":    shufflePrefix[int](rand.New(rand.NewSource(seed)), total, n),
				} {
					if len(got) != n || (n > 0 && !reflect.DeepEqual(got, want)) {
						t.Fatalf("%s(seed %d, total %d, n %d) differs from rand.Perm's prefix", name, seed, total, n)
					}
				}
			}
		}
	}
}

// TestNamesLenIsExact: the plan reserves name bytes from this count before
// a name exists, so it must agree with appendDomainName to the byte —
// across the 10^7 boundary where the index outgrows its zero padding.
func TestNamesLenIsExact(t *testing.T) {
	suffix := appendCohortSuffix(nil, &Cohort{Operator: "Tail-0001.com_hosting.example", TLD: "com"})
	if got, want := string(suffix), "-ail0001comho.com"; got != want {
		t.Fatalf("suffix %q, want %q", got, want)
	}
	for _, tc := range []struct{ start, n int }{
		{0, 0}, {0, 1}, {0, 12}, {999_995, 10}, {9_999_990, 25}, {10_000_000, 3},
		{99_999_999, 2}, {123_456_789, 5}, {9_999_999_998, 4},
	} {
		want := uint64(0)
		for i := 0; i < tc.n; i++ {
			name := appendDomainName(nil, tc.start+i, suffix)
			if ref := fmt.Sprintf("d%07d%s", tc.start+i, suffix); string(name) != ref {
				t.Fatalf("appendDomainName(%d) = %q, want %q", tc.start+i, name, ref)
			}
			want += uint64(len(name))
		}
		if got := namesLen(tc.start, tc.n, len(suffix)); got != want {
			t.Errorf("namesLen(%d, %d) = %d, the names take %d", tc.start, tc.n, got, want)
		}
	}
}

// BenchmarkWorldBuildSaveLoad is the world's whole bring-up at divisor 400
// (372k domains): generate, save durably, map back. allocs/domain is the
// figure to watch — it is what grows GC work with the population.
func BenchmarkWorldBuildSaveLoad(b *testing.B) {
	cfg := WorldConfig{Scale: 1.0 / 400, Seed: 1}
	path := filepath.Join(b.TempDir(), "world.rscw")
	b.ReportAllocs()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	domains := 0
	for i := 0; i < b.N; i++ {
		w, err := Build(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if err := w.Save(path); err != nil {
			b.Fatal(err)
		}
		loaded, _, err := LoadWorld(path)
		if err != nil {
			b.Fatal(err)
		}
		domains = loaded.Len()
		if err := loaded.Close(); err != nil {
			b.Fatal(err)
		}
	}
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/float64(b.N)/float64(domains), "allocs/domain")
	b.ReportMetric(float64(domains), "domains")
}
