package tldsim

import (
	"fmt"
	"math"
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

// TestSampleDrawProperties: whatever the seed, population and sample size,
// the draw is n distinct rows in range and a pure function of the seed; and
// over many seeds every row is as likely to be chosen, and to come first,
// as any other (5σ of the binomial).
func TestSampleDrawProperties(t *testing.T) {
	draw := func(seed int64, total, n int) []int {
		return drawSample(rand.New(newStream(seed)), total, n)
	}
	for _, seed := range []int64{1, 7, 1234, -5} {
		for _, total := range []int{1, 2, 17, 1000, 70001} {
			for _, n := range []int{0, 1, total / 3, total} {
				got := draw(seed, total, n)
				if len(got) != n {
					t.Fatalf("draw(seed %d, total %d, n %d) has %d rows", seed, total, n, len(got))
				}
				seen := make(map[int]bool, n)
				for _, row := range got {
					if row < 0 || row >= total || seen[row] {
						t.Fatalf("draw(seed %d, total %d, n %d) holds row %d out of range or twice", seed, total, n, row)
					}
					seen[row] = true
				}
				if !reflect.DeepEqual(got, draw(seed, total, n)) {
					t.Fatalf("draw(seed %d, total %d, n %d) is not a function of its seed", seed, total, n)
				}
			}
		}
	}

	const seeds, total, n = 2000, 50, 10
	var chosen, first [total]int
	for seed := int64(0); seed < seeds; seed++ {
		got := draw(seed, total, n)
		first[got[0]]++
		for _, row := range got {
			chosen[row]++
		}
	}
	within5Sigma := func(what string, counts [total]int, p float64) {
		mean, sigma := seeds*p, math.Sqrt(seeds*p*(1-p))
		for row, c := range counts {
			if math.Abs(float64(c)-mean) > 5*sigma {
				t.Errorf("row %d %s in %d of %d draws, expected %.0f ± %.1f", row, what, c, seeds, mean, 5*sigma)
			}
		}
	}
	within5Sigma("chosen", chosen, float64(n)/total)
	within5Sigma("drawn first", first, 1.0/total)
}

// TestSampleDrawFootprint: a sample costs what is asked for, not what
// exists. Drawing 1,000 rows allocates under 256 KB, and no more from ten
// times the population.
func TestSampleDrawFootprint(t *testing.T) {
	allocated := func(div float64) (bytes uint64, domains int) {
		w, err := Build(WorldConfig{Scale: 1 / div, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		src := w.SampleSource(1000, 1)
		runtime.ReadMemStats(&m1)
		if src.Len() != 1000 {
			t.Fatalf("divisor %v: sample of %d rows, want 1000", div, src.Len())
		}
		return m1.TotalAlloc - m0.TotalAlloc, w.Len()
	}
	small, smallN := allocated(4000)
	large, largeN := allocated(400)
	t.Logf("SampleSource(1000): %d B from %d domains, %d B from %d domains", small, smallN, large, largeN)
	if large > 256<<10 {
		t.Errorf("SampleSource(1000) allocated %d B from %d domains, budget 256 KB", large, largeN)
	}
	if large > small+small/10 {
		t.Errorf("SampleSource(1000) allocated %d B from %d domains but %d B from %d: the draw scales with the population",
			large, largeN, small, smallN)
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

// BenchmarkBuild is generation alone at three populations. The default plan
// has some 10,000 cohorts whatever the scale, so ns/domain falling with the
// divisor is the build's fixed cost (the plan, a stream per cohort) showing.
func BenchmarkBuild(b *testing.B) {
	for _, div := range []float64{4000, 400, 40} {
		b.Run(fmt.Sprintf("divisor=%v", div), func(b *testing.B) {
			cfg := WorldConfig{Scale: 1 / div, Seed: 1}
			var w *World
			for i := 0; i < b.N; i++ {
				var err error
				if w, err = Build(cfg); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(w.Len()), "ns/domain")
			b.ReportMetric(float64(len(w.Cohorts)), "cohorts")
		})
	}
}

// BenchmarkPlanCohorts is the part of a build that draws no domain: the
// catalogue scaled, five power-law tails solved and sized.
func BenchmarkPlanCohorts(b *testing.B) {
	cfg := WorldConfig{Scale: 1.0 / 400, Seed: 1}
	cfg.fill()
	for i := 0; i < b.N; i++ {
		if _, err := planCohorts(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSampleSource draws one sample size from two populations: B/op
// and ns/op belong to the 16,000 rows, not to the 372 k or 3.7 M they are
// drawn from.
func BenchmarkSampleSource(b *testing.B) {
	for _, div := range []float64{400, 40} {
		b.Run(fmt.Sprintf("n=16000/divisor=%v", div), func(b *testing.B) {
			w, err := Build(WorldConfig{Scale: 1 / div, Seed: 1})
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if src := w.SampleSource(16000, int64(i)); src.Len() != 16000 {
					b.Fatalf("sample of %d rows", src.Len())
				}
			}
		})
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
