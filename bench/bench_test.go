package main

import (
	"bytes"
	"context"
	"math"
	"strings"
	"testing"
)

// shortRun is one pass of the test-sized profile, shared by the tests that
// only read its result.
func shortRun(t *testing.T, traced bool) *result {
	t.Helper()
	p := shortProfile
	if raceDetector {
		// The mutation stream makes the detector report a race inside the
		// program (zone.BumpSerial against Sharded.ServeWireFull packing the
		// SOA; README.md, "Found while building it"), which this change may
		// not fix. Everything else still runs under the detector.
		p.MutationsPerSec = 0
	}
	res, err := runWorkload(context.Background(), p, 7, 12, traced)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range res.Errors {
		t.Errorf("oracle failed: %s", e)
	}
	if !res.Correct {
		t.Fatal("run not correct")
	}
	return res
}

func checkMetrics(t *testing.T, res *result, names [][2]string) {
	t.Helper()
	if len(res.Metrics) != len(names) {
		t.Errorf("%d metrics reported, %d named", len(res.Metrics), len(names))
	}
	for _, n := range names {
		v, ok := res.Metrics[n[0]]
		switch {
		case !ok:
			t.Errorf("metric %s missing", n[0])
		case v.Unit != n[1]:
			t.Errorf("metric %s has unit %q, want %q", n[0], v.Unit, n[1])
		case math.IsNaN(v.Value) || math.IsInf(v.Value, 0):
			t.Errorf("metric %s is %v", n[0], v.Value)
		}
	}
}

// TestShortUntraced: every stage runs, every oracle passes, and every named
// end-to-end metric comes out exactly once, finite and never zero.
func TestShortUntraced(t *testing.T) {
	res := shortRun(t, false)
	checkMetrics(t, res, endToEndUnits)
	for n, v := range res.Metrics {
		if v.Value <= 0 {
			t.Errorf("end-to-end metric %s = %v, must be positive", n, v.Value)
		}
	}
	if res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("ops attempted %d failed %d (sizes %v)", res.Attempted, res.Failed, res.Sizes)
	}
	if len(res.ArchiveSHA256) != 64 {
		t.Errorf("archive digest %q", res.ArchiveSHA256)
	}
}

// TestShortTraced: the traced pass reports every per-layer metric, sweeps
// twice with byte-identical archives, and its special paths all fired.
func TestShortTraced(t *testing.T) {
	res := shortRun(t, true)
	checkMetrics(t, res, perLayerUnits)
	for name, wantPositive := range map[string]bool{
		"dnsserver.mutations_applied": !raceDetector, "dnsserver.cache_flushed": !raceDetector,
		"dnsserver.cache_rejected": true, "exchange.retries": true,
		"checkpoint.chunk_files": true, "apiserv.restart_ready_ms": true,
		"dataset.spill_runs": true, "scan.failed_records": false,
	} {
		if got := res.Metrics[name].Value; (got > 0) != wantPositive {
			t.Errorf("%s = %v, want positive: %v", name, got, wantPositive)
		}
	}
	if len(res.SelfTimes) == 0 {
		t.Error("no self-time table")
	}
	// Same seed, same length: the untraced run's archive must be the same
	// bytes (the traced run already compared its own two sweeps).
	if again := shortRun(t, false); again.ArchiveSHA256 != res.ArchiveSHA256 {
		t.Errorf("archive digest differs across runs of one seed: %s vs %s", again.ArchiveSHA256, res.ArchiveSHA256)
	}
}

// TestSpecMatchesBenchmarkJSON keeps the Go metric tables and BENCHMARK.json
// from drifting apart.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	spec, err := loadSpec()
	if err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []metricSpec, want [][2]string) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark reports %d", kind, len(got), len(want))
			return
		}
		for i, w := range want {
			if got[i].Name != w[0] || got[i].Unit != w[1] {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark reports %s (%s)", kind, i, got[i].Name, got[i].Unit, w[0], w[1])
			}
			if got[i].Better != "higher" && got[i].Better != "lower" {
				t.Errorf("%s %s: better = %q", kind, got[i].Name, got[i].Better)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEndUnits)
	check("per_layer", spec.PerLayer, perLayerUnits)
	if len(spec.Workloads) != len(profiles) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(spec.Workloads), len(profiles))
	}
	for i, p := range profiles {
		if spec.Workloads[i].Name != p.Name || spec.Workloads[i].Why != p.Why {
			t.Errorf("workload %d: BENCHMARK.json has %q, the benchmark has %q", i, spec.Workloads[i].Name, p.Name)
		}
	}
	// The bounds are the ISSUE's: a metric that cannot meet its bound is
	// demoted, not given a wider one. Set-up time cannot be demoted (the
	// benchmark contract requires it) and has the contract's cap instead.
	for _, m := range spec.EndToEnd {
		want := 0.10
		switch m.Name {
		case "disk_bytes_per_record":
			want = 0.01
		case "setup_s":
			want = 0.25
		}
		if m.Bound != want {
			t.Errorf("%s: bound %v, want %v", m.Name, m.Bound, want)
		}
	}
}

func TestTailPercentileRule(t *testing.T) {
	for _, c := range []struct {
		n     int
		label string
		ok    bool
	}{
		{99, "", false}, // 9.9 samples beyond p90: not enough
		{100, "p90", true},
		{999, "p90", true},
		{1000, "p99", true},
		{9999, "p99", true},
		{10000, "p99.9", true},
		{100000, "p99.99", true},
		{10000000, "p99.99", true}, // the ladder ends there
	} {
		label, _, ok := tailPercentile(c.n)
		if label != c.label || ok != c.ok {
			t.Errorf("n=%d: got %q/%v, want %q/%v", c.n, label, ok, c.label, c.ok)
		}
		// Counted in whole samples, whatever rung was picked must leave ten
		// beyond it and the next rung up must not.
		for i, rung := range tailLadder {
			if rung.label != label {
				continue
			}
			if c.n/rung.oneIn < 10 {
				t.Errorf("n=%d: %s leaves %d samples beyond it", c.n, label, c.n/rung.oneIn)
			}
			if i+1 < len(tailLadder) && c.n/tailLadder[i+1].oneIn >= 10 {
				t.Errorf("n=%d: %s chosen though %s also has ten beyond", c.n, label, tailLadder[i+1].label)
			}
		}
	}
	us := make([]float64, 1000)
	for i := range us {
		us[i] = float64(i + 1)
	}
	s := summarizeLatency(us)
	if s.Samples != 1000 || s.TailLabel != "p99" || math.Abs(s.MedianUs-500.5) > 1e-9 || math.Abs(s.TailUs-990.01) > 1e-6 {
		t.Errorf("summary %+v", s)
	}
}

// TestSelfTime: a hand-built tree. The root runs 0..100; two children
// overlap (10..40 and 30..60, covering 50 together) and a third sticks out
// past the root's end (90..120, 10 inside). One grandchild covers half of
// the first child. A span never closed is left out.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{name: "root", parent: -1, start: 0, end: 100},
		{name: "child", parent: 0, start: 10, end: 40},
		{name: "child", parent: 0, start: 30, end: 60},
		{name: "child", parent: 0, start: 90, end: 120},
		{name: "leaf", parent: 1, start: 10, end: 25},
		{name: "open", parent: 0, start: 50, end: -1},
	}
	got := make(map[string]layerTime)
	for _, row := range selfTimes(spans) {
		got[row.Name] = row
	}
	ns := func(v float64) float64 { return math.Round(v * 1e9) }
	if r := got["root"]; r.Count != 1 || ns(r.TotalS) != 100 || ns(r.SelfS) != 40 {
		t.Errorf("root %+v, want total 100 self 40", r)
	}
	if r := got["child"]; r.Count != 3 || ns(r.TotalS) != 90 || ns(r.SelfS) != 75 {
		t.Errorf("child %+v, want total 90 self 75", r)
	}
	if r := got["leaf"]; r.Count != 1 || ns(r.SelfS) != 15 {
		t.Errorf("leaf %+v, want self 15", r)
	}
	if _, ok := got["open"]; ok {
		t.Error("an unclosed span entered the table")
	}
}

func TestComparatorVerdicts(t *testing.T) {
	spec := &benchSpec{EndToEnd: []metricSpec{
		{Name: "wall_s", Unit: "s", Better: "lower", Bound: 0.10},
		{Name: "rate", Unit: "1/s", Better: "higher", Bound: 0.10},
	}}
	run := func(wall, rate float64, attempted, failed int64) *result {
		return &result{Workload: "w", Correct: true, Attempted: attempted, Failed: failed,
			Metrics: map[string]value{"wall_s": {wall, "s"}, "rate": {rate, "1/s"}}}
	}
	set := func(runs ...*result) *resultSet { return &resultSet{Runs: map[string][]*result{"w": runs}} }
	seeded := func(r *result, seed int64, seconds int) *result {
		r.Seed, r.Seconds = seed, seconds
		return r
	}
	base := set(run(10, 100, 1000, 0), run(10.2, 101, 1000, 0), run(9.9, 99, 1000, 0))

	for _, c := range []struct {
		name      string
		cur       *resultSet
		symmetric bool
		regressed bool
		want      string
	}{
		{"within bounds", set(run(10.8, 95, 1000, 0)), false, false, "ok"},
		{"slower wall", set(run(11.5, 100, 1000, 0)), false, true, "REGRESSED"},
		{"lower rate", set(run(10, 85, 1000, 0)), false, true, "REGRESSED"},
		{"better is not a regression", set(run(8, 130, 1000, 0)), false, false, "improved"},
		{"better still differs between reruns", set(run(8, 100, 1000, 0)), true, true, "DIFFERS"},
		{"higher failed share", set(run(10, 100, 1000, 3)), false, true, "failed share"},
		{"metric missing", &resultSet{Runs: map[string][]*result{"w": {{Workload: "w", Correct: true, Attempted: 1, Metrics: map[string]value{}}}}}, false, true, "MISSING"},
		{"workload missing", &resultSet{Runs: map[string][]*result{"other": {run(1, 1, 1, 0)}}}, false, true, "MISSING"},
		{"another seed", set(seeded(run(10, 100, 1000, 0), 2, 0)), false, true, "NOT COMPARABLE"},
		{"another run length", set(seeded(run(10, 100, 1000, 0), 0, 30)), false, true, "NOT COMPARABLE"},
	} {
		var out bytes.Buffer
		if got := compareSets(&out, spec, base, c.cur, c.symmetric); got != c.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", c.name, got, c.regressed, out.String())
		}
		if !strings.Contains(out.String(), c.want) {
			t.Errorf("%s: output lacks %q\n%s", c.name, c.want, out.String())
		}
	}

	bad := run(10, 100, 1000, 0)
	bad.Correct, bad.Errors = false, []string{"sweep oracle: mismatch"}
	var out bytes.Buffer
	if !compareSets(&out, spec, base, set(bad), false) {
		t.Error("an incorrect run on the new side must fail the comparison")
	}
	if !compareSets(&out, spec, &resultSet{}, set(bad), false) {
		t.Error("an empty baseline must fail the comparison")
	}

	// A count that was zero has no share to worsen by: any move is a
	// difference, a regression in the metric's worse direction.
	lower, higher := metricSpec{Better: "lower"}, metricSpec{Better: "higher"}
	for _, c := range []struct {
		spec     metricSpec
		old, new float64
		want     float64
	}{
		{lower, 0, 0, 0}, {lower, 0, 3, math.Inf(1)}, {higher, 0, 3, math.Inf(-1)},
		{lower, 10, 11, 0.1}, {higher, 10, 9, 0.1}, {higher, 10, 12, -0.2},
	} {
		if got := worsening(c.spec, c.old, c.new); math.Abs(got-c.want) > 1e-12 && got != c.want {
			t.Errorf("worsening(%s, %v -> %v) = %v, want %v", c.spec.Better, c.old, c.new, got, c.want)
		}
	}
}
