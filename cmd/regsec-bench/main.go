// Command regsec-bench measures the columnar analytics engine over a
// generated world and writes the BENCH_colstore.json baseline, so the
// engine's trajectory is tracked across PRs. It also benchmarks the DNS
// exchange stack — repeated scans through the cache+dedup middleware versus
// the bare retry path — and writes BENCH_exchange.json. CI runs every
// section on every push and archives the JSON files as artifacts.
//
// Usage:
//
//	regsec-bench [-scale 1000] [-seed 1] [-o BENCH_colstore.json] [-compare old.json]
//	             [-exchange-o BENCH_exchange.json] [-exchange-sample 400] [-exchange-passes 3] [-exchange-min-reduction 2]
//	             [-dsweep-o BENCH_dsweep.json] [-dsweep-scale 4000] [-dsweep-sample 150] [-dsweep-shards 4]
//	             [-worldscale-o BENCH_worldscale.json] [-worldscale-divisors 4000,400,40]
//	             [-api-o BENCH_api.json] [-api-days 6] [-api-domains 3000] [-api-readers 8] [-api-requests 4000]
//	             [-serve-o BENCH_serve.json] [-serve-sample 60] [-serve-rate 100000] [-serve-duration 1.5s]
//	             [-serve-min-speedup 5] [-serve-max-allocs 2]
//
// Each analytics workload runs under testing.Benchmark; the emitted file
// carries ns/op, allocs/op and B/op per workload. The two aggregations
// (operator CDF, Table 1 overview) run in two variants — "/colstore" on the
// index's columns and "/legacy" through internal/analysis over a
// materialized snapshot, the path regsec-report takes over an archive —
// and the file records their ratio. With -compare the run is also diffed
// against a previous baseline and regressions are reported (exit 1 when a
// workload slowed by more than 2x, so CI can gate on it).
//
// The exchange section re-scans one materialized day several times (one
// cold pass, the rest warm) with and without the cache+dedup layers,
// verifying the scan output is identical and gating on the transport-
// exchange reduction (exit 1 below -exchange-min-reduction, default 2x).
//
// The dsweep section runs the coordinator/worker topology at fleet sizes
// 1, 2 and 4 over a shared checkpoint directory, recording wall-clock and
// re-lease counts in BENCH_dsweep.json, then kills a worker mid-shard and
// gates on the recovered archive staying byte-identical (exit 1 on any
// divergence).
//
// The worldscale section (enabled with -worldscale-o) measures the
// plan-then-fill world build at each -worldscale-divisors population,
// saves the world to disk, re-loads it, and drives the full 21-month
// snapshot+series+Table 1 workload from the re-loaded world. Across
// divisors it gates on the built world's heap-object count not growing
// with the domain count (exit 1 otherwise).
//
// The api section (enabled with -api-o) runs the observatory daemon
// in-process over a synthetic archive: read QPS and p50/p99 latency
// through the full handler stack while one section is ingested
// concurrently (exit 1 if the ingest does not land mid-run), then the
// shed rate of a two-slot admission gate under flood.
//
// The serve section (enabled with -serve-o) measures the authoritative
// serving path: handler ns/op and allocs/op for the seed handler (Unpack,
// Authoritative.ServeDNS, Pack) against the warm wire fast path, then
// closed- and open-loop loopback UDP load from internal/loadgen. It
// gates on the warm fast path being at least -serve-min-speedup times the
// seed handler at no more than -serve-max-allocs allocations per query.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

func main() {
	os.Exit(run())
}

func run() int {
	scaleDiv := flag.Float64("scale", 1000, "population divisor for the benchmark world")
	seed := flag.Int64("seed", 1, "world seed")
	outPath := flag.String("o", "BENCH_colstore.json", "baseline output path")
	compare := flag.String("compare", "", "previous baseline to diff against")
	exchangeOut := flag.String("exchange-o", "BENCH_exchange.json", "exchange-stack baseline output path (empty disables)")
	exchangeSample := flag.Int("exchange-sample", 400, "domains materialized for the exchange benchmark")
	exchangePasses := flag.Int("exchange-passes", 3, "same-day scan passes (first cold, rest warm)")
	exchangeMinReduction := flag.Float64("exchange-min-reduction", 2, "minimum cached/uncached transport-exchange reduction (exit 1 below it)")
	dsweepOut := flag.String("dsweep-o", "BENCH_dsweep.json", "distributed-sweep baseline output path (empty disables)")
	dsweepScale := flag.Float64("dsweep-scale", 4000, "population divisor for the distributed-sweep benchmark world")
	dsweepSample := flag.Int("dsweep-sample", 150, "domains per day in the distributed-sweep benchmark")
	dsweepShards := flag.Int("dsweep-shards", 4, "shards per day in the distributed-sweep benchmark")
	worldscaleOut := flag.String("worldscale-o", "", "world-scale streaming-build baseline output path (empty disables)")
	worldscaleDivisors := flag.String("worldscale-divisors", "4000,400,40", "comma-separated population divisors for the world-scale section")
	apiOut := flag.String("api-o", "", "observatory-daemon baseline output path (empty disables)")
	apiDays := flag.Int("api-days", 6, "archive sections in the api benchmark")
	apiDomains := flag.Int("api-domains", 3000, "domains per section in the api benchmark")
	apiReaders := flag.Int("api-readers", 8, "concurrent read workers in the api benchmark")
	apiRequests := flag.Int("api-requests", 4000, "read requests in the api benchmark")
	serveOut := flag.String("serve-o", "", "authoritative-serving baseline output path (empty disables)")
	serveSample := flag.Int("serve-sample", 60, "domains materialized for the serving benchmark")
	serveRate := flag.Int("serve-rate", 100000, "open-loop offered QPS in the serving benchmark")
	serveDuration := flag.Duration("serve-duration", 1500*time.Millisecond, "measured window per serving load run")
	serveMinSpeedup := flag.Float64("serve-min-speedup", 5, "minimum warm-fast-path/seed-path handler speedup (exit 1 below it)")
	serveMaxAllocs := flag.Int64("serve-max-allocs", 2, "maximum allocations per warm cache-hit query (exit 1 above it)")
	flag.Parse()

	fmt.Fprintf(os.Stderr, "building world (scale 1/%.0f, seed %d)...\n", *scaleDiv, *seed)
	world, err := tldsim.Build(tldsim.WorldConfig{Scale: 1 / *scaleDiv, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	idx := world.Index()
	fmt.Fprintf(os.Stderr, "population: %d domains, %d operators\n", idx.Len(), idx.Operators())

	// One materialized snapshot for the */legacy aggregations (internal/
	// analysis scanning records), built outside the timed regions.
	snap := world.SnapshotAt(simtime.End)
	inGTLD := func(r *dataset.Record) bool {
		return r.TLD == "com" || r.TLD == "net" || r.TLD == "org"
	}

	type work struct {
		name string
		fn   func(b *testing.B)
	}
	works := []work{
		{"SnapshotAt/colstore", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if snap := world.SnapshotAt(simtime.End); len(snap.Records) == 0 {
					b.Fatal("empty")
				}
			}
		}},
		{"SeriesOVH/colstore", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if pts := world.SeriesFor("ovh.net", "", simtime.GTLDStart, simtime.End, 1); len(pts) == 0 {
					b.Fatal("empty")
				}
			}
		}},
		{"OperatorCDF/colstore", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if cdf := idx.OperatorCDF(simtime.End, colstore.ClassAny, "com", "net", "org"); len(cdf) == 0 {
					b.Fatal("empty")
				}
			}
		}},
		{"OperatorCDF/legacy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if cdf := analysis.OperatorCDF(snap, inGTLD); len(cdf) == 0 {
					b.Fatal("empty")
				}
			}
		}},
		{"Overview/colstore", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ov := idx.Overview(simtime.End, tldsim.AllTLDs); len(ov) == 0 {
					b.Fatal("empty")
				}
			}
		}},
		{"Overview/legacy", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if ov := analysis.Overview(snap, tldsim.AllTLDs); len(ov) == 0 {
					b.Fatal("empty")
				}
			}
		}},
	}

	baseline := &colstore.Baseline{
		Schema:       colstore.BaselineSchema,
		GoMaxProcs:   runtime.GOMAXPROCS(0),
		ScaleDivisor: *scaleDiv,
		Seed:         *seed,
		Domains:      idx.Len(),
		Operators:    idx.Operators(),
	}
	for _, w := range works {
		r := testing.Benchmark(w.fn)
		res := colstore.BenchResult{
			Name:        w.name,
			Iterations:  r.N,
			NsPerOp:     float64(r.T.Nanoseconds()) / float64(r.N),
			AllocsPerOp: r.AllocsPerOp(),
			BytesPerOp:  r.AllocedBytesPerOp(),
		}
		baseline.Benchmarks = append(baseline.Benchmarks, res)
		fmt.Fprintf(os.Stderr, "%-24s %12.0f ns/op %10d allocs/op %12d B/op\n",
			res.Name, res.NsPerOp, res.AllocsPerOp, res.BytesPerOp)
	}
	baseline.ComputeSpeedups()
	var names []string
	for name := range baseline.Speedups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(os.Stderr, "speedup %-16s %.1fx\n", name, baseline.Speedups[name])
	}

	if err := baseline.WriteFile(*outPath); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", *outPath)

	if *compare != "" {
		prev, err := colstore.ReadBaseline(*compare)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		prevNs := map[string]float64{}
		for _, r := range prev.Benchmarks {
			prevNs[r.Name] = r.NsPerOp
		}
		regressed := false
		for _, r := range baseline.Benchmarks {
			old, ok := prevNs[r.Name]
			if !ok || old <= 0 {
				continue
			}
			ratio := r.NsPerOp / old
			marker := ""
			if ratio > 2 {
				marker = "  REGRESSION"
				regressed = true
			}
			fmt.Fprintf(os.Stderr, "vs %s: %-24s %.2fx%s\n", *compare, r.Name, ratio, marker)
		}
		if regressed {
			return 1
		}
	}

	if *exchangeOut != "" {
		if code := runExchangeBench(world, exchangeBenchConfig{
			ScaleDivisor: *scaleDiv,
			Seed:         *seed,
			Sample:       *exchangeSample,
			Passes:       *exchangePasses,
			MinReduction: *exchangeMinReduction,
			OutPath:      *exchangeOut,
		}); code != 0 {
			return code
		}
	}
	if *dsweepOut != "" {
		if code := runDsweepBench(dsweepBenchConfig{
			ScaleDivisor: *dsweepScale,
			Seed:         *seed,
			Sample:       *dsweepSample,
			Shards:       *dsweepShards,
			OutPath:      *dsweepOut,
		}); code != 0 {
			return code
		}
	}
	if *worldscaleOut != "" {
		divisors, err := parseDivisors(*worldscaleDivisors)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if code := runWorldscaleBench(worldscaleBenchConfig{
			Seed:     *seed,
			Divisors: divisors,
			OutPath:  *worldscaleOut,
		}); code != 0 {
			return code
		}
	}
	if *apiOut != "" {
		if code := runAPIBench(apiBenchConfig{
			Days:          *apiDays,
			DomainsPerDay: *apiDomains,
			ReadWorkers:   *apiReaders,
			Requests:      *apiRequests,
			OutPath:       *apiOut,
		}); code != 0 {
			return code
		}
	}
	if *serveOut != "" {
		if code := runServeBench(world, serveBenchConfig{
			ScaleDivisor: *scaleDiv,
			Seed:         *seed,
			Sample:       *serveSample,
			Rate:         *serveRate,
			Duration:     *serveDuration,
			MinSpeedup:   *serveMinSpeedup,
			MaxAllocs:    *serveMaxAllocs,
			OutPath:      *serveOut,
		}); code != 0 {
			return code
		}
	}
	return 0
}

// writeBaseline durably replaces path with v as indented JSON (temp file,
// fsync, rename), so neither a crash nor a concurrent run can leave a torn
// BENCH_*.json behind.
func writeBaseline(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := dataset.WriteFileAtomic(path, append(data, '\n')); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	return nil
}

// exchangeBenchConfig parameterizes the exchange-stack benchmark.
type exchangeBenchConfig struct {
	ScaleDivisor float64
	Seed         int64
	Sample       int
	Passes       int
	MinReduction float64
	OutPath      string
}

// exchangeBaseline is the BENCH_exchange.json schema: transport-level
// accounting for the same scan workload through the bare retry path and
// through the cache+dedup stack, plus a synthetic concurrent-duplicate
// workload isolating the dedup layer.
type exchangeBaseline struct {
	Schema       string  `json:"schema"`
	ScaleDivisor float64 `json:"scale_divisor"`
	Seed         int64   `json:"seed"`
	Sample       int     `json:"sample"`
	Passes       int     `json:"passes"`
	Workers      int     `json:"workers"`

	// Uncached and Cached are the cumulative stack counters after all
	// passes of the respective configuration.
	Uncached exchange.Counters `json:"uncached"`
	Cached   exchange.Counters `json:"cached"`
	// TransportReduction is uncached/cached transport exchanges.
	TransportReduction float64 `json:"transport_reduction"`
	// IdenticalOutput records that every cached pass produced the same
	// canonicalized snapshot as its uncached counterpart.
	IdenticalOutput bool `json:"identical_output"`

	// DedupOffExchanges / DedupOnExchanges count transport exchanges for
	// the concurrent-duplicate workload with the dedup layer off and on.
	DedupOffExchanges int64 `json:"dedup_off_exchanges"`
	DedupOnExchanges  int64 `json:"dedup_on_exchanges"`
	DedupCoalesced    int64 `json:"dedup_coalesced"`
}

const exchangeBaselineSchema = "regsec-bench-exchange/1"

// canonicalTSV serializes a snapshot with records in domain order, so
// snapshots from sweeps with different worker interleavings compare equal
// exactly when they observed the same things.
func canonicalTSV(snap *dataset.Snapshot) (string, error) {
	c := &dataset.Snapshot{Day: snap.Day, Records: append([]dataset.Record(nil), snap.Records...)}
	sort.Slice(c.Records, func(i, j int) bool { return c.Records[i].Domain < c.Records[j].Domain })
	var buf bytes.Buffer
	if err := c.WriteTSV(&buf); err != nil {
		return "", err
	}
	return buf.String(), nil
}

// runExchangeBench measures the resolve path: the same full-sample scan
// repeated cfg.Passes times over one materialized day, through the bare
// retry-only stack and through cache+dedup. The first cached pass is cold;
// the rest ride the warm cache (same-day re-scans keep it, per the
// scanner's flush-on-day-change contract).
func runExchangeBench(world *tldsim.World, cfg exchangeBenchConfig) int {
	const workers = 8
	fmt.Fprintf(os.Stderr, "exchange bench: materializing %d domains...\n", cfg.Sample)
	domains := world.Sample(cfg.Sample, cfg.Seed)
	day := simtime.End
	mat, err := tldsim.Materialize(day, domains)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	targets := make([]scan.Target, 0, len(domains))
	for _, d := range domains {
		targets = append(targets, scan.Target{Domain: d.Name, TLD: d.TLD})
	}

	run := func(cached bool) ([]string, exchange.Counters, error) {
		sc := scan.Config{
			Exchange:   mat.Net,
			TLDServers: mat.TLDServers,
			Workers:    workers,
			Clock:      func() simtime.Day { return day },
			Retry:      retry.Policy{MaxAttempts: 3},
		}
		if cached {
			sc.Cache = &exchange.CacheOptions{}
			sc.Dedup = true
		}
		s, err := scan.New(sc)
		if err != nil {
			return nil, exchange.Counters{}, err
		}
		var tsvs []string
		for p := 0; p < cfg.Passes; p++ {
			snap, _, err := s.ScanDay(context.Background(), day, targets)
			if err != nil {
				return nil, exchange.Counters{}, err
			}
			tsv, err := canonicalTSV(snap)
			if err != nil {
				return nil, exchange.Counters{}, err
			}
			tsvs = append(tsvs, tsv)
		}
		return tsvs, s.Stack().Counters(), nil
	}

	plainTSVs, plainCounters, err := run(false)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cachedTSVs, cachedCounters, err := run(true)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	identical := true
	for p := range plainTSVs {
		if plainTSVs[p] != cachedTSVs[p] {
			identical = false
			fmt.Fprintf(os.Stderr, "exchange bench: pass %d output DIVERGED between cached and uncached stacks\n", p)
		}
	}
	reduction := 0.0
	if cachedCounters.Transport.Exchanges > 0 {
		reduction = float64(plainCounters.Transport.Exchanges) / float64(cachedCounters.Transport.Exchanges)
	}

	// Dedup in isolation: every worker asks the same question at the same
	// moment, so identical queries are genuinely in flight together — the
	// singleflight case a scan's distinct qnames rarely trigger. The
	// in-memory transport answers in well under a microsecond, which is no
	// in-flight window at all, so it gets a network-realistic RTT.
	dedupRun := func(on bool) (int64, int64) {
		rtt := exchange.Func(func(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
			time.Sleep(200 * time.Microsecond)
			return mat.Net.Exchange(ctx, server, q)
		})
		st, err := exchange.Build(exchange.Options{Transport: rtt, Dedup: on})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 0, 0
		}
		for i, t := range targets {
			server, ok := mat.TLDServers[t.TLD]
			if !ok {
				continue
			}
			start := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(w int) {
					defer wg.Done()
					q := dnswire.NewQuery(uint16(w*len(targets)+i), t.Domain, dnswire.TypeNS)
					<-start
					st.Exchange(context.Background(), server, q)
				}(w)
			}
			close(start)
			wg.Wait()
		}
		c := st.Counters()
		return c.Transport.Exchanges, c.Dedup.Hits
	}
	dedupOff, _ := dedupRun(false)
	dedupOn, coalesced := dedupRun(true)

	baseline := &exchangeBaseline{
		Schema:             exchangeBaselineSchema,
		ScaleDivisor:       cfg.ScaleDivisor,
		Seed:               cfg.Seed,
		Sample:             cfg.Sample,
		Passes:             cfg.Passes,
		Workers:            workers,
		Uncached:           plainCounters,
		Cached:             cachedCounters,
		TransportReduction: reduction,
		IdenticalOutput:    identical,
		DedupOffExchanges:  dedupOff,
		DedupOnExchanges:   dedupOn,
		DedupCoalesced:     coalesced,
	}
	if err := writeBaseline(cfg.OutPath, baseline); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "exchange: uncached %d vs cached %d transport exchanges (%.1fx reduction), cache %d/%d hit, dedup coalesced %d/%d\n",
		plainCounters.Transport.Exchanges, cachedCounters.Transport.Exchanges, reduction,
		cachedCounters.Cache.Hits, cachedCounters.Cache.Hits+cachedCounters.Cache.Misses,
		coalesced, dedupOff)

	if !identical {
		return 1
	}
	if reduction < cfg.MinReduction {
		fmt.Fprintf(os.Stderr, "exchange bench: transport reduction %.2fx below the %.1fx gate\n", reduction, cfg.MinReduction)
		return 1
	}
	return 0
}
