package dsweep

import (
	"context"
	"fmt"
	"strings"

	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// WorldSpec carries everything a worker needs to rebuild the sweep
// environment for itself: the world, the sample, and the scan
// configuration. It travels inside the Plan, so a remote worker process
// needs only the coordinator's address — determinism of the world builder
// and the scan engine guarantees every worker sees the same targets and
// produces the same bytes for the same shard.
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
	// Seed fixes the world build and the sample draw.
	Seed int64 `json:"seed"`
	// Sample is the number of domains drawn from the world.
	Sample int `json:"sample"`
	// Workers is each worker's internal scan concurrency.
	Workers int `json:"workers"`
	// Retries is the per-query attempt budget.
	Retries int `json:"retries"`
	// Resweeps is the bounded re-sweep pass count (-1 disables).
	Resweeps int `json:"resweeps"`
	// Cache and Dedup toggle the optional exchange stack layers.
	Cache bool `json:"cache,omitempty"`
	Dedup bool `json:"dedup,omitempty"`
	// FaultFrac/FaultLoss/FaultSeed configure the sweep-wide fault
	// injection (a fraction of DNS operators made lossy), identically on
	// every worker.
	FaultFrac float64 `json:"fault_frac,omitempty"`
	FaultLoss float64 `json:"fault_loss,omitempty"`
	FaultSeed int64   `json:"fault_seed,omitempty"`
}

// normalize fills defaults matching the regsec-scan CLI.
func (sp *WorldSpec) normalize() {
	if sp.ScaleDiv <= 0 {
		sp.ScaleDiv = 2000
	}
	if sp.Seed == 0 {
		sp.Seed = 1
	}
	if sp.Sample <= 0 {
		sp.Sample = 1000
	}
	if sp.Workers <= 0 {
		sp.Workers = 16
	}
	if sp.Retries <= 0 {
		sp.Retries = 3
	}
	if sp.Resweeps == 0 {
		sp.Resweeps = 2
	}
	if sp.FaultSeed == 0 {
		sp.FaultSeed = 1
	}
}

// Fingerprint renders the sweep configuration fingerprint that binds the
// coordinator's state and every worker completion to one plan. Everything
// that shapes the output bytes is in it; per-worker vantage profiles are
// not (see the type comment).
func (sp *WorldSpec) Fingerprint(days []simtime.Day, shards, chunk int) string {
	s := *sp
	s.normalize()
	names := make([]string, 0, len(days))
	for _, d := range days {
		names = append(names, d.String())
	}
	// The chunk size shapes the durable chunk files a resumed sweep trusts,
	// so it is part of the fingerprint like the shard count.
	return fmt.Sprintf("sweep scale=%g seed=%d days=%s sample=%d shards=%d faults=%g/%g/%d retries=%d resweeps=%d cache=%v dedup=%v chunk=%d",
		s.ScaleDiv, s.Seed, strings.Join(names, ","), s.Sample, shards,
		s.FaultFrac, s.FaultLoss, s.FaultSeed, s.Retries, s.Resweeps, s.Cache, s.Dedup, scan.ChunkSize(chunk))
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

// BuildStream materializes the spec into a scan.StreamDaySetup: the world
// is built once (the expensive part), and each day's call yields a fresh
// exchange stack, a cursor over the sample, and a per-chunk prepare hook
// that materializes only the chunk in flight as real signed DNS — signing
// cost and resident zone data scale with the chunk size, not the sample.
// vantage, when non-empty, is this worker's own vantage-point fault
// profile, layered below the sweep-wide fault rules and driven by
// vantageSeed.
func (sp *WorldSpec) BuildStream(vantage []faultnet.Rule, vantageSeed int64, onEvent func(format string, args ...any)) (scan.StreamDaySetup, error) {
	world, err := tldsim.Build(tldsim.WorldConfig{Scale: 1 / sp.ScaleDiv, Seed: sp.Seed})
	if err != nil {
		return nil, err
	}
	return sp.BuildStreamWith(world, vantage, vantageSeed, onEvent)
}

// BuildStreamWith is BuildStream over a caller-supplied world — typically
// one mmap-loaded from a world cache: the setup keeps the world reachable
// for the whole sweep (chunks materialize from it lazily), so a file-backed
// population stays out of the resident heap.
func (sp *WorldSpec) BuildStreamWith(world *tldsim.World, vantage []faultnet.Rule, vantageSeed int64, onEvent func(format string, args ...any)) (scan.StreamDaySetup, error) {
	s := *sp
	s.normalize()
	src := world.SampleSource(s.Sample, s.Seed)
	if onEvent == nil {
		onEvent = func(string, ...any) {}
	}
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		onEvent("streaming %d domains at %s (lazy per-chunk materialization)", src.Len(), day)
		sm := tldsim.NewStreamMaterializer(day, src)
		clock := func() simtime.Day { return day }
		var mw []exchange.Middleware
		if s.FaultFrac > 0 {
			rules, faulty := tldsim.LossyOperatorsSource(src, s.FaultFrac, s.FaultLoss, s.FaultSeed)
			mw = append(mw, faultnet.New(nil, s.FaultSeed, clock, rules...).Middleware())
			onEvent("injecting %.0f%% loss on %d operator(s)", s.FaultLoss*100, len(faulty))
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
	}, nil
}
