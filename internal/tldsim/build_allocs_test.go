package tldsim

import (
	"fmt"
	"path/filepath"
	"testing"
)

// TestNameCounterMatchesAppend: the fill steps each name's index in place;
// every name it gives is appendDomainName's, d%07d and the suffix, on both
// sides of each width step, 10^7 (where the zero padding runs out) and
// 10^8.
func TestNameCounterMatchesAppend(t *testing.T) {
	suffix := appendCohortSuffix(nil, &Cohort{Operator: "tail0042.com-hosting.example", TLD: "com"})
	for _, start := range []int{0, 999_990, 9_999_990, 9_999_999, 10_000_000, 99_999_995} {
		var c nameCounter
		c.start(start, suffix)
		for idx := start; idx < start+20; idx++ {
			if idx > start {
				c.next(suffix)
			}
			if want := fmt.Sprintf("d%07d%s", idx, suffix); string(c.buf) != want {
				t.Fatalf("from %d, name %d is %q, want %q", start, idx, c.buf, want)
			}
		}
	}
}

// TestWorldBuildAllocs pins what a build and a save allocate at divisor
// 4000 (37,167 domains in 8,099 cohorts), counted at GOMAXPROCS 1 so the
// figures do not move with the host. Before the cohort plan named its tail
// operators by appending and the event groups took one allocation each, a
// build made 48,842. A save allocates the same whatever the rows and
// cohorts: its columns go out as they lie in memory.
func TestWorldBuildAllocs(t *testing.T) {
	const buildBound, saveBound = 1000, 125
	cfg := WorldConfig{Scale: 1.0 / 4000, Seed: 1}
	var w *World
	build := testing.AllocsPerRun(2, func() {
		var err error
		if w, err = Build(cfg); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("%d domains, %d cohorts: Build %.0f allocations", w.Len(), len(w.Cohorts), build)
	if build > buildBound {
		t.Errorf("Build allocated %.0f times, bound %d", build, buildBound)
	}
	small, err := Build(WorldConfig{Scale: 1.0 / 40000, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One bound for both: what a save allocates does not grow with the
	// world (it varies by a few with the temp file's name).
	for _, w := range []*World{w, small} {
		path := filepath.Join(t.TempDir(), "world.rscw")
		save := testing.AllocsPerRun(2, func() {
			if err := w.Save(path); err != nil {
				t.Fatal(err)
			}
		})
		t.Logf("%d domains, %d cohorts: Save %.0f allocations", w.Len(), len(w.Cohorts), save)
		if save > saveBound {
			t.Errorf("Save of %d domains allocated %.0f times, bound %d", w.Len(), save, saveBound)
		}
	}
}
