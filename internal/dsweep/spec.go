package dsweep

import (
	"context"
	"flag"
	"fmt"
	"reflect"
	"strings"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// WorldSpec is the one declaration of a sweep: the world, the sample, the
// query stack and the sweep-wide faults. The facade (Study.ScanLongitudinal,
// ScanDistributed, ScanSample), regsec-scan, regsec-sweepd and every worker
// translate what they are given into a spec and hand it to BuildStreamWith,
// the only assembler; the fingerprint is an encoding of the same value. It
// travels inside the Plan, so a remote worker process needs only the
// coordinator's address — determinism of the world builder and the scan
// engine guarantees every worker sees the same targets and produces the
// same bytes for the same shard.
//
// A field shapes the sweep's bytes, and is bound by the fingerprint, unless
// it is tagged `fingerprint:"-"`; the determinism tests hold a tagged field
// to not shaping them.
//
// Per-worker vantage-point fault profiles are deliberately NOT part of the
// spec (or the fingerprint): they model where a worker measures from, not
// what the sweep measures, and two vantage points may legitimately disagree
// — which is exactly the divergent-duplicate case the coordinator settles
// by checksum.
type WorldSpec struct {
	// ScaleDiv is the population divisor (the -scale flag; 2000 → .com has
	// ~59k domains).
	ScaleDiv float64 `json:"scale_div"`
	// Seed fixes the world build.
	Seed int64 `json:"seed"`
	// Sample is the number of domains drawn from the world.
	Sample int `json:"sample"`
	// SampleSeed drives the sample draw (zero: the world seed).
	SampleSeed int64 `json:"sample_seed,omitempty"`
	// Workers is each worker's internal scan concurrency.
	Workers int `json:"workers" fingerprint:"-"`
	// Retries is the per-query attempt budget.
	Retries int `json:"retries"`
	// Resweeps is the bounded re-sweep pass count (-1 disables).
	Resweeps int `json:"resweeps"`
	// Cache and Dedup toggle the optional exchange stack layers.
	Cache bool `json:"cache,omitempty"`
	Dedup bool `json:"dedup,omitempty"`
	// FaultFrac/FaultLoss make a fraction of the sample's DNS operators
	// lossy; Rules are explicit sweep-wide fault rules, matched before
	// them. One injector seeded by FaultSeed applies both, identically on
	// every worker.
	FaultFrac float64         `json:"fault_frac,omitempty"`
	FaultLoss float64         `json:"fault_loss,omitempty"`
	FaultSeed int64           `json:"fault_seed,omitempty"`
	Rules     []faultnet.Rule `json:"rules,omitempty"`
}

// defaultSpec holds the defaults of the plan flags; normalize falls back to
// them for fields left at their zero value.
var defaultSpec = WorldSpec{
	ScaleDiv: 2000, Seed: 1, Sample: 1000, Workers: 16,
	Retries: 3, Resweeps: 2, FaultLoss: 0.2, FaultSeed: 1,
}

// normalize fills unset fields from defaultSpec. FaultLoss stays as given:
// zero loss is a value, and it only matters once FaultFrac is set.
func (sp *WorldSpec) normalize() {
	if sp.ScaleDiv <= 0 {
		sp.ScaleDiv = defaultSpec.ScaleDiv
	}
	if sp.Seed == 0 {
		sp.Seed = defaultSpec.Seed
	}
	if sp.Sample <= 0 {
		sp.Sample = defaultSpec.Sample
	}
	if sp.SampleSeed == 0 {
		sp.SampleSeed = sp.Seed
	}
	if sp.Workers <= 0 {
		sp.Workers = defaultSpec.Workers
	}
	if sp.Retries <= 0 {
		sp.Retries = defaultSpec.Retries
	}
	if sp.Resweeps == 0 {
		sp.Resweeps = defaultSpec.Resweeps
	}
	if sp.FaultSeed == 0 {
		sp.FaultSeed = defaultSpec.FaultSeed
	}
}

// RegisterPlanFlags declares on fs the flags that shape a sweep's plan —
// the ones regsec-scan and regsec-sweepd must agree on for a distributed
// sweep to merge byte-identical to a single-process one. It is the one
// place their names, defaults and help strings live; the returned function
// assembles the parsed values into a plan.
func RegisterPlanFlags(fs *flag.FlagSet) func() (Plan, error) {
	var spec WorldSpec
	fs.Float64Var(&spec.ScaleDiv, "scale", defaultSpec.ScaleDiv, "population divisor (2000 → .com has ~59k domains)")
	fs.Int64Var(&spec.Seed, "seed", defaultSpec.Seed, "world seed")
	daysStr := fs.String("days", "2016-12-31", "comma-separated measurement days, ascending (YYYY-MM-DD)")
	fs.IntVar(&spec.Sample, "sample", defaultSpec.Sample, "domains to sample from the world and scan")
	shards := fs.Int("shards", 4, "shards per day: the checkpoint unit of a resume, the lease unit of a distributed sweep")
	fs.IntVar(&spec.Workers, "workers", defaultSpec.Workers, "scan concurrency (of each worker process in a distributed sweep)")
	fs.IntVar(&spec.Retries, "retries", defaultSpec.Retries, "per-query attempt budget")
	fs.IntVar(&spec.Resweeps, "resweeps", defaultSpec.Resweeps, "re-sweep passes over failed targets (-1 disables)")
	fs.BoolVar(&spec.Cache, "cache", false, "enable the TTL-respecting response cache in the exchange stack")
	fs.BoolVar(&spec.Dedup, "dedup", false, "coalesce concurrent identical queries in the exchange stack")
	fs.Float64Var(&spec.FaultFrac, "fault-frac", 0, "fraction of DNS operators made faulty (0 disables injection)")
	fs.Float64Var(&spec.FaultLoss, "fault-loss", defaultSpec.FaultLoss, "packet-loss probability on faulty operators")
	fs.Int64Var(&spec.FaultSeed, "fault-seed", defaultSpec.FaultSeed, "fault schedule seed")
	chunk := fs.Int("chunk", scan.DefaultChunk, "targets per materialize+scan+flush chunk; every completed chunk is durably flushed")
	return func() (Plan, error) {
		var days []simtime.Day
		for _, part := range strings.Split(*daysStr, ",") {
			day, err := simtime.Parse(strings.TrimSpace(part))
			if err != nil {
				return Plan{}, err
			}
			days = append(days, day)
		}
		if err := checkDays(days); err != nil {
			return Plan{}, err
		}
		return spec.PlanFor(days, *shards, *chunk), nil
	}
}

// PlanFlagNames lists the flags RegisterPlanFlags declares.
func PlanFlagNames() []string {
	fs := flag.NewFlagSet("", flag.ContinueOnError)
	RegisterPlanFlags(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	return names
}

// WorldConfig is the generator configuration of the world the spec sweeps.
func (sp *WorldSpec) WorldConfig() tldsim.WorldConfig {
	return tldsim.WorldConfig{Scale: 1 / sp.ScaleDiv, Seed: sp.Seed}
}

// Fingerprint binds checkpoint state, the coordinator's ledger and every
// worker completion to one sweep: the world's own fingerprint (which names
// the generator's version — a ledger left by another generator holds days of
// a different world), the days, the shard count, the chunk size that shapes
// the durable chunk files, and every field of the normalized spec not
// tagged out. It is the only function that formats one, so a field added to
// the spec cannot be forgotten by it.
func (sp *WorldSpec) Fingerprint(days []simtime.Day, shards, chunk int) string {
	s := *sp
	s.normalize()
	names := make([]string, 0, len(days))
	for _, d := range days {
		names = append(names, d.String())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "sweep world=%s days=%s shards=%d chunk=%d",
		s.WorldConfig().Fingerprint(), strings.Join(names, ","), shards, scan.ChunkSize(chunk))
	v := reflect.ValueOf(s)
	for i := 0; i < v.NumField(); i++ {
		if f := v.Type().Field(i); f.Tag.Get("fingerprint") != "-" {
			fmt.Fprintf(&b, " %s=%+v", f.Name, v.Field(i).Interface())
		}
	}
	return b.String()
}

// PlanFor assembles a complete Plan for this spec, scanned in chunks of
// chunk targets (see Plan.Chunk).
func (sp *WorldSpec) PlanFor(days []simtime.Day, shards, chunk int) Plan {
	s := *sp
	s.normalize()
	return Plan{
		Fingerprint: s.Fingerprint(days, shards, chunk),
		Days:        append([]simtime.Day(nil), days...),
		Shards:      shards,
		Chunk:       chunk,
		Spec:        &s,
	}
}

// BuildStream is BuildStreamWith over a world built from the spec.
func (sp *WorldSpec) BuildStream(vantage []faultnet.Rule, vantageSeed int64, onEvent func(format string, args ...any)) (scan.StreamDaySetup, error) {
	world, err := tldsim.Build(sp.WorldConfig())
	if err != nil {
		return nil, err
	}
	return sp.BuildStreamWith(world, vantage, vantageSeed, onEvent), nil
}

// BuildStreamWith assembles the spec into a scan.StreamDaySetup over world
// (the one the spec names — typically built, or mmap-loaded from a world
// cache, out of WorldConfig). The sample and the sweep-wide fault rules are
// drawn once; each day's call then yields a fresh exchange stack, a cursor
// over the sample, and a per-chunk prepare hook that materializes only the
// chunk in flight as real signed DNS — signing cost and resident zone data
// scale with the chunk size, not the sample. The setup keeps the world
// reachable for the whole sweep (chunks materialize from it lazily), so a
// file-backed population stays out of the resident heap. vantage, when
// non-empty, is this worker's own vantage-point fault profile, layered
// below the sweep-wide fault rules and driven by vantageSeed.
func (sp *WorldSpec) BuildStreamWith(world *tldsim.World, vantage []faultnet.Rule, vantageSeed int64, onEvent func(format string, args ...any)) scan.StreamDaySetup {
	s := *sp
	s.normalize()
	src := world.SampleSource(s.Sample, s.SampleSeed)
	if onEvent == nil {
		onEvent = func(string, ...any) {}
	}
	faults := s.Rules
	if s.FaultFrac > 0 {
		lossy, faulty := tldsim.LossyOperatorsSource(src, s.FaultFrac, s.FaultLoss, s.FaultSeed)
		// Capacity clipped: the append must not write into the caller's Rules.
		faults = append(faults[:len(faults):len(faults)], lossy...)
		onEvent("injecting %.0f%% loss on %d operator(s)", s.FaultLoss*100, len(faulty))
	}
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		onEvent("streaming %d domains at %s (lazy per-chunk materialization)", src.Len(), day)
		sm := tldsim.NewStreamMaterializer(day, src)
		clock := func() simtime.Day { return day }
		var mw []exchange.Middleware
		if len(faults) > 0 {
			mw = append(mw, faultnet.New(nil, s.FaultSeed, clock, faults...).Middleware())
		}
		if len(vantage) > 0 {
			mw = append(mw, faultnet.New(nil, vantageSeed, clock, vantage...).Middleware())
		}
		var cacheOpts *exchange.CacheOptions
		if s.Cache {
			cacheOpts = &exchange.CacheOptions{}
		}
		scanner, err := scan.New(scan.Config{
			Exchange:    sm,
			Middleware:  mw,
			Dedup:       s.Dedup,
			Cache:       cacheOpts,
			TLDServers:  sm.TLDServers,
			Workers:     s.Workers,
			Clock:       clock,
			Retry:       retry.Policy{MaxAttempts: s.Retries},
			MaxResweeps: s.Resweeps,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		prepare := func(ctx context.Context, lo, hi int) error {
			// Each chunk's materialization signs with fresh keys, so any
			// answers cached from the previous chunk would fail this chunk's
			// validation — the cache must not outlive a chunk.
			if s.Cache {
				scanner.Stack().FlushCache()
			}
			return sm.Prepare(ctx, lo, hi)
		}
		return scanner, src, prepare, nil
	}
}

// Sweep is the plan (one PlanFor made: it has its Spec) as a single-process
// resumable sweep over world, durable in cp when cp is non-nil; run it with
// RunStream(ctx, p.Days, sink).
func (p *Plan) Sweep(world *tldsim.World, cp *checkpoint.Store, spill dataset.SpillOptions,
	onDayHealth func(simtime.Day, *scan.SweepHealth), onEvent func(format string, args ...any)) *scan.ResumableSweep {
	return &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: p.Fingerprint,
		Shards:      p.Shards,
		Chunk:       p.Chunk,
		Spill:       spill,
		StreamSetup: p.Spec.BuildStreamWith(world, nil, 0, onEvent),
		OnDayHealth: onDayHealth,
		OnEvent:     onEvent,
	}
}

// Fleet is the plan (PlanFor's, as for Sweep) as n in-process workers over
// world for RunLocal, named w01…; each owns its sample cursor and exchange
// stack, as a separate regsec-scan -worker process would.
func (p *Plan) Fleet(world *tldsim.World, n int, onEvent func(format string, args ...any)) []WorkerSpec {
	workers := make([]WorkerSpec, n)
	for i := range workers {
		workers[i] = WorkerSpec{Name: fmt.Sprintf("w%02d", i+1), StreamSetup: p.Spec.BuildStreamWith(world, nil, 0, onEvent)}
	}
	return workers
}
