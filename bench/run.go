package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"securepki.org/registrarsec/internal/apiserv"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/tldsim"
)

// outDir holds everything a run writes: results, traces and the scratch
// directory of the run in flight. It is bench/out (the benchmark runs from
// bench/), and .gitignore names it.
const outDir = "out"

// resultPath is where a run of the workload saves its result, by mode.
func resultPath(workload string, traced bool) string {
	kind := "e2e"
	if traced {
		kind = "layers"
	}
	return filepath.Join(mustOutDir(), kind+"-"+workload+".json")
}

// result is one run of one workload: the contract's four keys plus what the
// comparator and a reader need to interpret them.
type result struct {
	Workload  string           `json:"workload"`
	Seed      int64            `json:"seed"`
	Seconds   int              `json:"seconds"`
	Traced    bool             `json:"traced"`
	Host      hostInfo         `json:"host"`
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
	// Demoted are the metrics specified as end-to-end and held by no bound,
	// as an untraced run measured them; -compare prints them without a verdict.
	Demoted map[string]value `json:"demoted,omitempty"`

	// Oracle failures, in the order found; empty when Correct.
	Errors []string `json:"errors,omitempty"`
	// ArchiveSHA256 must be identical across runs of one seed and length.
	ArchiveSHA256 string `json:"archive_sha256"`
	// Latencies follow the reporting rule: median, highest percentile with
	// ten samples beyond it, sample count.
	Latencies map[string]latencySummary `json:"latencies"`
	SelfTimes []layerTime               `json:"self_times,omitempty"`
	Sizes     map[string]int            `json:"sizes"`
	// Parts are the walls the end-to-end metrics are made of, for a reader
	// who wants to know which part of a sum moved.
	Parts map[string]float64 `json:"parts"`
}

// contractLine is the last line of standard output.
type contractLine struct {
	Correct   bool             `json:"correct"`
	Attempted int64            `json:"attempted"`
	Failed    int64            `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// setupOnce does everything a run needs before its first timed stage: build
// the world (the scenario build includes its baseline), save it for the
// pipeline to load, materialize and warm the serve stage, and cold-start an
// observatory daemon. The caller repeats it and reports the median time.
type prepared struct {
	worldPath  string
	worldBytes int64
	buildS     float64
	saveS      float64
	rig        *serveRig
}

func setupOnce(ctx context.Context, p profile, dir string, seed int64) (*prepared, error) {
	pre := &prepared{worldPath: filepath.Join(dir, "world.rscw")}
	cfg := tldsim.WorldConfig{Scale: 1 / p.Divisor, Seed: seed}
	t0 := time.Now()
	world, err := tldsim.BuildScenario(p.Scenario, cfg)
	if err != nil {
		return nil, err
	}
	pre.buildS = time.Since(t0).Seconds()
	t0 = time.Now()
	if err := world.Save(pre.worldPath); err != nil {
		return nil, err
	}
	pre.saveS = time.Since(t0).Seconds()
	if info, err := os.Stat(pre.worldPath); err == nil {
		pre.worldBytes = info.Size()
	}
	if pre.rig, err = buildServeRig(p, world, seed); err != nil {
		return nil, err
	}

	warm := filepath.Join(dir, "warm")
	if err := os.MkdirAll(warm, 0o755); err != nil {
		return nil, err
	}
	o := startObservatory(ctx, apiserv.Config{
		ArchivePath: filepath.Join(warm, "observed.tsv"), WorldPath: filepath.Join(warm, "observed.colstore"),
		PollInterval: observatoryPoll,
	})
	defer o.stop()
	if err := o.waitSections(ctx, 0); err != nil {
		return nil, err
	}
	for _, path := range apiPaths {
		o.get(path)
	}
	return pre, nil
}

// sweepOracle holds the archive to the world it measured: the strict reader
// accepts it, it has the days asked for, and every measured record
// classifies (none/partial/full) exactly as the world's DomainState does on
// that day. The strictly-read store is returned for the later stages.
func sweepOracle(sw *sweepResult) (*dataset.Store, error) {
	src := sw.Source
	f, err := os.Open(sw.Archive)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	store, err := dataset.ReadArchiveStrict(f)
	if err != nil {
		return nil, fmt.Errorf("sweep oracle: %w", err)
	}
	if store.Len() != len(sw.Days) {
		return nil, fmt.Errorf("sweep oracle: archive has %d sections, swept %d days", store.Len(), len(sw.Days))
	}
	sw.Failed, sw.WithDNSKEY = 0, 0
	byName := make(map[string]int, src.Len())
	for i := 0; i < src.Len(); i++ {
		name, _ := src.Target(i)
		byName[name] = i
	}
	for _, day := range sw.Days {
		snap := store.Get(day)
		if snap == nil || len(snap.Records) != src.Len() {
			return nil, fmt.Errorf("sweep oracle: day %s is missing records", day)
		}
		for i := range snap.Records {
			r := &snap.Records[i]
			if r.Failed {
				sw.Failed++
				continue
			}
			if r.HasDNSKEY {
				sw.WithDNSKEY++
			}
			row, ok := byName[r.Domain]
			if !ok {
				return nil, fmt.Errorf("sweep oracle: %s was never a target", r.Domain)
			}
			d := src.DomainAt(row)
			model := d.RecordAt(day)
			if got, want := r.Deployment(), model.Deployment(); got != want {
				return nil, fmt.Errorf("sweep oracle: %s on %s scanned %v, world says %v", r.Domain, day, got, want)
			}
		}
	}
	return store, nil
}

// runWorkload executes the whole pipeline once and returns its result. An
// error is a failure to run at all; a failed oracle comes back as a result
// with Correct false, cut short where a later stage has no input left.
func runWorkload(ctx context.Context, p profile, seed int64, seconds int, traced bool) (*result, error) {
	p = p.sized(seconds)
	dir, err := os.MkdirTemp(mustOutDir(), "run-"+p.Name+"-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var tr *tracer
	if traced {
		tr = newTracer()
	}
	m := newMetricSet()
	res := &result{
		Workload: p.Name, Seed: seed, Seconds: seconds, Traced: traced, Host: readHost(),
		Latencies: make(map[string]latencySummary), Sizes: make(map[string]int),
		Parts: make(map[string]float64),
	}
	fail := func(err error) {
		if err != nil {
			res.Errors = append(res.Errors, err.Error())
		}
	}
	// finish picks the run's named metrics, every one exactly once and finite.
	// A run an oracle cut short names the oracle, not each metric after it.
	finish := func() (*result, error) {
		m.set("peak_rss_mb", "MB", peakRSSMB())
		names := endToEndUnits
		if traced {
			names = perLayerUnits
		}
		var missing []string
		res.Metrics, missing = pick(m, names)
		if !traced {
			res.Demoted, _ = pick(m, demotedUnits)
		}
		if len(res.Errors) == 0 {
			for _, n := range missing {
				fail(fmt.Errorf("metric %s was not measured", n))
			}
		}
		for _, n := range m.dup {
			fail(fmt.Errorf("metric %s was reported twice", n))
		}
		for n, v := range res.Metrics {
			if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
				fail(fmt.Errorf("metric %s is %v", n, v.Value))
				delete(res.Metrics, n) // JSON cannot carry it
			}
		}
		res.Correct = len(res.Errors) == 0
		return res, nil
	}

	// Set-up, untimed by the stages and reported as its own metric.
	var pre *prepared
	var setups []float64
	for i := 0; i < p.SetupRepeats; i++ {
		pre = nil
		runtime.GC() // the previous repeat's world is garbage; drop it first
		t0 := time.Now()
		if pre, err = setupOnce(ctx, p, dir, seed); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	m.set("setup_s", "s", median(setups))

	// Serve.
	stages := make(map[string]*stageMeter)
	stageOps := make(map[string]float64)
	root := tr.begin("serve", -1, 0)
	stages["serve"] = beginStage(traced)
	sv, err := serveStage(ctx, p, pre.rig, seed, tr)
	if err != nil {
		return nil, fmt.Errorf("serve: %w", err)
	}
	stages["serve"].finish()
	tr.end(root)
	stageOps["serve"] = float64(sv.Closed.Sent)
	res.Attempted, res.Failed = int64(sv.Closed.Sent), int64(sv.Closed.Lost)
	res.Sizes["failed_lost_queries"] = int(sv.Closed.Lost)
	if sv.Closed.Lost > 0 {
		fail(fmt.Errorf("serve oracle: %d of %d queries lost", sv.Closed.Lost, sv.Closed.Sent))
	}
	responses, err := serveOracle(pre.rig, seed)
	fail(err)
	if traced && err == nil {
		fail(probeCrypto(m, pre.rig, p.ProbeBudget))
		fail(probeWire(m, pre.rig, responses, p.ProbeBudget))
	}
	res.Sizes["serve_domains"] = len(pre.rig.domains)
	res.Sizes["query_mix"] = len(pre.rig.mix)
	worldPath, worldBytes, buildS, saveS := pre.worldPath, pre.worldBytes, pre.buildS, pre.saveS
	pre = nil // the materialized day is not needed past this point
	runtime.GC()

	// Load the cached world: the batch path starts here.
	t0 := time.Now()
	world, _, err := tldsim.LoadWorld(worldPath)
	if err != nil {
		return nil, fmt.Errorf("loading the world: %w", err)
	}
	defer world.Close()
	loadS := time.Since(t0).Seconds()
	res.Sizes["world_domains"] = world.Len()

	// Sweep. A traced run sweeps twice — first with no tracer, for the
	// tracing overhead and for the same-seed archive digest — and keeps the
	// traced sweep's archive for the later stages.
	var untraced *sweepResult
	if traced {
		plainDir := filepath.Join(dir, "untraced")
		if err := os.MkdirAll(plainDir, 0o755); err != nil {
			return nil, err
		}
		if untraced, err = sweepStage(ctx, p, world, plainDir, seed, nil, -1); err != nil {
			return nil, fmt.Errorf("untraced sweep: %w", err)
		}
	}
	root = tr.begin("sweep", -1, 0)
	stages["sweep"] = beginStage(traced)
	sw, err := sweepStage(ctx, p, world, dir, seed, tr, root)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	stages["sweep"].finish()
	tr.end(root)
	res.ArchiveSHA256 = sw.SHA256
	if untraced != nil && untraced.SHA256 != sw.SHA256 {
		fail(fmt.Errorf("sweep oracle: two sweeps of seed %d wrote different archives (%s, %s)", seed, untraced.SHA256, sw.SHA256))
	}
	stageOps["sweep"] = float64(sw.Records)
	res.Sizes["sweep_records"] = sw.Records
	res.Attempted += int64(sw.Records)
	store, err := sweepOracle(sw)
	if err != nil {
		// Without an archive that reads back, the later stages have no input.
		fail(err)
		return finish()
	}
	res.Failed += int64(sw.Failed)
	res.Sizes["failed_sweep_records"] = sw.Failed

	// Ingest and query.
	ob, err := observeStages(ctx, p, store, dir, traced, tr)
	if err != nil {
		return nil, fmt.Errorf("observatory: %w", err)
	}
	for _, err := range ob.OracleErrs {
		fail(err)
	}
	stages["ingest"], stages["query"] = ob.Ingest, ob.Query
	stageOps["ingest"] = float64(sw.Records)
	stageOps["query"] = float64(ob.OK + ob.Non200)

	// Report.
	root = tr.begin("report", -1, 0)
	stages["report"] = beginStage(traced)
	rp, err := reportStage(world.Index(), p, tr, root)
	stages["report"].finish()
	tr.end(root)
	fail(err)
	stageOps["report"] = float64(rp.Queries)
	res.Sizes["snapshot_rows"] = rp.Snapshot

	// End-to-end metrics.
	records := float64(sw.Records)
	res.Parts["load_s"], res.Parts["sweep_s"], res.Parts["ingest_lag_s"], res.Parts["report_s"] = loadS, sw.WallS, ob.LagTotalS, rp.WallS
	for i, s := range setups {
		res.Parts[fmt.Sprintf("setup_%d_s", i)] = s
	}
	// A traced run sweeps twice; the numbers a user would see are those of
	// the sweep without the tracer.
	plain := sw
	if untraced != nil {
		plain = untraced
	}
	m.set("pipeline_wall_s", "s", loadS+plain.WallS+ob.LagTotalS+rp.WallS)
	m.set("sweep_records_per_s", "rec/s", records/plain.WallS)
	m.set("serve_qps", "q/s", sv.Closed.QPS)
	m.set("serve_p99_us", "us", us(sv.Closed.P99))
	m.set("ingest_records_per_s", "rec/s", records/ob.LagTotalS)
	m.set("api_reads_per_s", "req/s", float64(ob.OK)/ob.ReadWall)
	apiSorted := sortedCopy(ob.LatUs)
	m.set("api_p99_us", "us", quantile(apiSorted, 0.99))
	m.set("report_wall_s", "s", rp.WallS)
	m.set("disk_bytes_per_record", "B", float64(sw.ArchiveBytes+ob.WorldBytes)/records)

	res.Attempted += int64(ob.OK + ob.Non200)
	res.Failed += int64(ob.Non200)
	res.Sizes["failed_api_non200"] = ob.Non200
	res.Latencies["serve"] = sv.latency()
	res.Latencies["api"] = summarizeLatency(ob.LatUs)
	res.Latencies["ingest_lag_ms_as_us"] = summarizeLatency(scale(ob.LagMs, 1e3))

	if traced {
		perLayer(m, p, perLayerInputs{
			tr: tr, sv: sv, sw: sw, untraced: untraced, ob: ob, rp: rp,
			stages: stages, stageOps: stageOps,
			buildS: buildS, saveS: saveS, loadS: loadS, worldBytes: worldBytes,
		})
		fail(probeArchive(m, p, sw, store, dir, tr))
		probeIndex(m, world.Index(), p.ProbeBudget)
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		m.set("runtime.gc_cpu_fraction", "ratio", ms.GCCPUFraction)
		res.SelfTimes = selfTimes(tr.spans)
		tracePath := filepath.Join(mustOutDir(), "trace-"+p.Name+".json")
		if err := tr.writeChrome(tracePath); err != nil {
			return nil, err
		}
	}
	return finish()
}

func scale(v []float64, k float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x * k
	}
	return out
}

func mustOutDir() string {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	return outDir
}

// print writes the human-readable report to w: every metric by name with
// its unit, the latencies by the reporting rule, the self-time table of a
// traced run, and the host.
func (r *result) print(w *os.File) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s) seed=%d seconds=%d correct=%v ops=%d failed=%d\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Correct, r.Attempted, r.Failed)
	fmt.Fprintf(w, "   host: nproc=%d GOMAXPROCS=%d %s kernel=%s commit=%s\n   transport: %s\n",
		r.Host.NProc, r.Host.GoMaxProcs, r.Host.GoVersion, r.Host.Kernel, r.Host.Commit, r.Host.Transport)
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "   %-36s %16.4f %s\n", n, r.Metrics[n].Value, r.Metrics[n].Unit)
	}
	for _, n := range []string{"serve", "api", "ingest_lag_ms_as_us"} {
		if l, ok := r.Latencies[n]; ok {
			tail := "too few samples for a tail percentile"
			if l.TailLabel != "" {
				tail = fmt.Sprintf("%s %.1f us", l.TailLabel, l.TailUs)
			}
			fmt.Fprintf(w, "   latency %-22s median %.1f us, %s, %d samples\n", n, l.MedianUs, tail, l.Samples)
		}
	}
	if len(r.SelfTimes) > 0 {
		fmt.Fprintf(w, "   %-28s %9s %11s %11s\n", "span", "count", "total_s", "self_s")
		for _, row := range r.SelfTimes {
			fmt.Fprintf(w, "   %-28s %9d %11.4f %11.4f\n", row.Name, row.Count, row.TotalS, row.SelfS)
		}
	}
	fmt.Fprintf(w, "   archive sha256 %s\n", r.ArchiveSHA256)
	for _, e := range r.Errors {
		fmt.Fprintf(w, "   ORACLE FAILED: %s\n", e)
	}
}

// save writes the result where -compare and -all pick it up.
func (r *result) save() (string, error) {
	path := resultPath(r.Workload, r.Traced)
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return "", err
	}
	return path, os.WriteFile(path, append(data, '\n'), 0o644)
}
