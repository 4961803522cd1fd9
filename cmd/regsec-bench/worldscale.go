package main

// The world-scale section: how the world build behaves as the population
// approaches real-.com size. For each divisor it measures the parallel
// plan-then-fill build (wall-clock, allocation footprint, live heap),
// saves the world to disk, re-loads it, and drives the full 21-month
// snapshot + series + Table 1 workload from the re-loaded world — the
// build-once/load-many lifecycle the world cache uses. Across divisors it
// gates on the built world's heap-object count staying flat:
// the world is a fixed set of pointer-free columns plus per-operator
// intern tables, so what the collector has to walk must not grow with the
// population.

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"

	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

type worldscaleBenchConfig struct {
	Seed     int64
	Divisors []float64
	OutPath  string
}

// worldscaleEntry is one divisor's measurements.
type worldscaleEntry struct {
	ScaleDivisor float64 `json:"scale_divisor"`
	Domains      int     `json:"domains"`
	Operators    int     `json:"operators"`
	Workers      int     `json:"workers"`

	BuildMs             float64 `json:"build_ms"`
	BuildAllocBytes     uint64  `json:"build_alloc_bytes"`
	LiveBytesAfterBuild uint64  `json:"live_bytes_after_build"`
	// HeapObjectsAfterBuild is the live object count with only the built
	// world held: what every later GC cycle has to mark.
	HeapObjectsAfterBuild uint64 `json:"heap_objects_after_build"`

	SaveMs    float64 `json:"save_ms"`
	FileBytes int64   `json:"file_bytes"`
	LoadMs    float64 `json:"load_ms"`

	SnapshotMs float64 `json:"snapshot_ms"`
	SeriesMs   float64 `json:"series_ms"`
	Table1Ms   float64 `json:"table1_ms"`
}

type worldscaleBaseline struct {
	Schema     string            `json:"schema"`
	Seed       int64             `json:"seed"`
	GoMaxProcs int               `json:"gomaxprocs"`
	Entries    []worldscaleEntry `json:"entries"`
}

const worldscaleBaselineSchema = "regsec-bench-worldscale/1"

func parseDivisors(s string) ([]float64, error) {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		d, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil || d <= 0 {
			return nil, fmt.Errorf("bad divisor %q in -worldscale-divisors", part)
		}
		out = append(out, d)
	}
	return out, nil
}

func runWorldscaleBench(cfg worldscaleBenchConfig) int {
	tmpDir, err := os.MkdirTemp("", "regsec-worldscale-*")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(tmpDir)

	baseline := &worldscaleBaseline{
		Schema:     worldscaleBaselineSchema,
		Seed:       cfg.Seed,
		GoMaxProcs: runtime.GOMAXPROCS(0),
	}
	for _, div := range cfg.Divisors {
		wcfg := tldsim.WorldConfig{Scale: 1 / div, Seed: cfg.Seed}
		entry := worldscaleEntry{ScaleDivisor: div, Workers: runtime.GOMAXPROCS(0)}

		var m0, m1 runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&m0)
		start := time.Now()
		world, err := tldsim.Build(wcfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		entry.BuildMs = ms(start)
		runtime.ReadMemStats(&m1)
		entry.BuildAllocBytes = m1.TotalAlloc - m0.TotalAlloc
		runtime.GC()
		runtime.ReadMemStats(&m1)
		entry.LiveBytesAfterBuild = m1.HeapAlloc
		entry.HeapObjectsAfterBuild = m1.HeapObjects
		entry.Domains = world.Len()
		entry.Operators = world.Index().Operators()
		fmt.Fprintf(os.Stderr, "worldscale 1/%.0f: built %d domains in %.0f ms (%.0f MB allocated, %.0f MB live in %d objects)\n",
			div, entry.Domains, entry.BuildMs,
			float64(entry.BuildAllocBytes)/1e6, float64(entry.LiveBytesAfterBuild)/1e6, entry.HeapObjectsAfterBuild)

		path := filepath.Join(tmpDir, fmt.Sprintf("world-%.0f.rscw", div))
		start = time.Now()
		if err := world.Save(path); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		entry.SaveMs = ms(start)
		if st, err := os.Stat(path); err == nil {
			entry.FileBytes = st.Size()
		}

		// Drop the built world: everything below runs from the re-loaded
		// one, proving the save/load cycle round-trips the full workload.
		world = nil
		runtime.GC()
		start = time.Now()
		loaded, _, err := tldsim.LoadWorld(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		entry.LoadMs = ms(start)

		start = time.Now()
		snap := loaded.SnapshotAt(simtime.End)
		entry.SnapshotMs = ms(start)
		if len(snap.Records) != entry.Domains {
			fmt.Fprintf(os.Stderr, "worldscale 1/%.0f: reloaded snapshot has %d records, want %d\n",
				div, len(snap.Records), entry.Domains)
			return 1
		}
		snap = nil

		start = time.Now()
		series := loaded.SeriesFor("ovh.net", "", simtime.GTLDStart, simtime.End, 1)
		entry.SeriesMs = ms(start)
		if len(series) == 0 {
			fmt.Fprintf(os.Stderr, "worldscale 1/%.0f: empty series from reloaded world\n", div)
			return 1
		}

		start = time.Now()
		overview := loaded.Index().Overview(simtime.End, tldsim.AllTLDs)
		entry.Table1Ms = ms(start)
		if len(overview) != len(tldsim.AllTLDs) {
			fmt.Fprintf(os.Stderr, "worldscale 1/%.0f: overview covered %d TLDs, want %d\n",
				div, len(overview), len(tldsim.AllTLDs))
			return 1
		}
		loaded.Close()
		fmt.Fprintf(os.Stderr, "worldscale 1/%.0f: save %.0f ms (%.0f MB), load %.0f ms, snapshot %.0f ms, series %.0f ms, table1 %.0f ms\n",
			div, entry.SaveMs, float64(entry.FileBytes)/1e6, entry.LoadMs,
			entry.SnapshotMs, entry.SeriesMs, entry.Table1Ms)

		baseline.Entries = append(baseline.Entries, entry)
	}
	if err := writeBaseline(cfg.OutPath, baseline); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if !heapObjectsFlat(baseline.Entries) {
		return 1
	}
	return 0
}

// heapObjectsFlat is the gate on heap_objects_after_build: measured from
// the smallest population, a larger one may hold a few more objects per
// additional operator (its intern-table entries and event-day lists) and
// must hold next to none per additional domain — 0.01, where one string
// per name would be 1.
func heapObjectsFlat(entries []worldscaleEntry) bool {
	const perOperator, domainsPerObject, slack = 5, 100, 2000
	if len(entries) == 0 {
		return true
	}
	base := entries[0]
	for _, e := range entries[1:] {
		if e.Domains < base.Domains {
			base = e
		}
	}
	flat := true
	for _, e := range entries {
		grew := int64(e.HeapObjectsAfterBuild) - int64(base.HeapObjectsAfterBuild)
		allowed := int64(perOperator*(e.Operators-base.Operators) + (e.Domains-base.Domains)/domainsPerObject + slack)
		if grew > allowed {
			fmt.Fprintf(os.Stderr, "worldscale 1/%.0f: %d heap objects after build, %d more than at 1/%.0f; %d allowed for %d more operators and %d more domains\n",
				e.ScaleDivisor, e.HeapObjectsAfterBuild, grew, base.ScaleDivisor, allowed, e.Operators-base.Operators, e.Domains-base.Domains)
			flat = false
		}
	}
	return flat
}

func ms(since time.Time) float64 {
	return float64(time.Since(since).Nanoseconds()) / 1e6
}
