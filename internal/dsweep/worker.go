package dsweep

import (
	"context"
	"fmt"
	"hash/fnv"
	"log/slog"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// WorkerConfig configures a Worker.
type WorkerConfig struct {
	// Name identifies the worker to the coordinator and tags its chunk
	// files; must be unique within one sweep.
	Name string
	// Coord is the control plane: a *Coordinator directly, or a *Client.
	Coord Coordination
	// Store is the shared checkpoint directory chunks are flushed into.
	Store *checkpoint.Store
	// StreamSetup builds this worker's scanner, target cursor and
	// per-chunk prepare hook for one day — each worker owns its whole
	// exchange stack, so vantage-point fault profiles and transport state
	// never leak between workers.
	StreamSetup scan.StreamDaySetup
}

// Worker claims leases from a coordinator, scans its shard chunk by chunk
// through its own exchange stack — durably flushing each chunk as an
// owner-tagged checksum-trailered file, so a kill mid-shard resumes at the
// last flushed chunk — and reports the unit's chunk manifest as its
// completion. It keeps no ledger of its own: everything it knows is either
// in the shared checkpoint directory or re-derivable, which is what makes
// killing it at any instant safe.
type Worker struct {
	cfg WorkerConfig

	// The most recent day's scanning environment and shard spans, cached
	// because the coordinator leases a day's shards consecutively.
	cachedDay simtime.Day
	cached    *scan.DayEnv
	spans     []scan.Span
}

// NewWorker validates the configuration and returns a worker.
func NewWorker(cfg WorkerConfig) (*Worker, error) {
	switch {
	case cfg.Name == "":
		return nil, fmt.Errorf("dsweep: worker requires a name")
	case cfg.Coord == nil:
		return nil, fmt.Errorf("dsweep: worker requires a coordinator")
	case cfg.Store == nil:
		return nil, fmt.Errorf("dsweep: worker requires a checkpoint store")
	case cfg.StreamSetup == nil:
		return nil, fmt.Errorf("dsweep: worker requires a day setup")
	}
	return &Worker{cfg: cfg}, nil
}

// Run claims and completes units until the plan is done, the context is
// cancelled, or a fault kills the worker.
func (w *Worker) Run(ctx context.Context) error {
	plan, err := w.cfg.Coord.FetchPlan(ctx)
	if err != nil {
		return fmt.Errorf("dsweep: worker %s: fetching plan: %w", w.cfg.Name, err)
	}
	if err := plan.validate(); err != nil {
		return err
	}
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		grant, err := w.cfg.Coord.Lease(ctx, w.cfg.Name)
		if err != nil {
			return fmt.Errorf("dsweep: worker %s: lease: %w", w.cfg.Name, err)
		}
		switch grant.Status {
		case GrantDone:
			slog.Info("worker: plan complete, exiting", "worker", w.cfg.Name)
			return nil
		case GrantWait: // Lease waited as long as it could: ask again
		case GrantRun:
			done, err := w.runUnit(ctx, plan, grant)
			if err != nil {
				return err
			}
			if done {
				slog.Info("worker: plan complete, exiting", "worker", w.cfg.Name)
				return nil
			}
		default:
			return fmt.Errorf("dsweep: worker %s: unknown grant status %q", w.cfg.Name, grant.Status)
		}
	}
}

// runUnit scans one leased unit under a heartbeat and reports its chunk
// manifest. It reports whether this completion finished the whole plan — in
// that case the coordinator may stop serving immediately, so the worker
// must not come back for another lease.
func (w *Worker) runUnit(ctx context.Context, plan *Plan, grant *Grant) (bool, error) {
	unit := grant.Unit
	stopHB := w.startHeartbeat(ctx, grant.LeaseID, time.Duration(grant.TTLMillis)*time.Millisecond)
	defer stopHB()

	manifest, health, err := w.scanUnit(ctx, plan, unit)
	if err != nil {
		return false, err
	}
	stopHB()

	reply, err := w.cfg.Coord.Complete(ctx, &CompleteRequest{
		LeaseID:     grant.LeaseID,
		Worker:      w.cfg.Name,
		Unit:        unit,
		Fingerprint: plan.Fingerprint,
		Manifest:    manifest,
		Health:      health,
	})
	if err != nil {
		return false, fmt.Errorf("dsweep: worker %s: completing %s: %w", w.cfg.Name, unit, err)
	}
	slog.Info("worker: unit settled", "worker", w.cfg.Name, "unit", unit, "lease", grant.LeaseID, "status", reply.Status,
		"chunks", manifest.Chunks)
	return reply.Done, nil
}

// day returns the worker's scanning environment for a day, building it
// via StreamSetup on first use. Only the most recent day is cached: the
// coordinator grants in plan order, so day changes are monotone and rare.
func (w *Worker) day(ctx context.Context, plan *Plan, d simtime.Day) (*scan.DayEnv, []scan.Span, error) {
	if w.cached != nil && w.cachedDay == d {
		return w.cached, w.spans, nil
	}
	scanner, src, prepare, err := w.cfg.StreamSetup(ctx, d)
	if err != nil {
		return nil, nil, fmt.Errorf("dsweep: worker %s: setup for %s: %w", w.cfg.Name, d, err)
	}
	w.cachedDay = d
	w.cached = &scan.DayEnv{Scanner: scanner, Source: src, Prepare: prepare}
	w.spans = scan.ShardBounds(src.Len(), plan.Shards)
	return w.cached, w.spans, nil
}

// chunkOwner tags this worker's durable chunk files with a hash of its raw
// name and the plan fingerprint, so a restarted worker trusts only chunks
// it wrote itself under this exact plan — never a stale file from a
// previous sweep in the same directory, and never another worker's chunks,
// whose vantage-point fault profile may legitimately differ. The hash
// keeps apart names the tag's filename-safe form would not ("a/b", "a-b").
func (w *Worker) chunkOwner(plan *Plan) string {
	h := fnv.New32a()
	h.Write([]byte(w.cfg.Name + "\x00" + plan.Fingerprint))
	return fmt.Sprintf("%s-%08x", w.cfg.Name, h.Sum32())
}

// scanUnit scans one unit through scan's chunk loop and returns the unit's
// chunk manifest. The loop runs the rule the single-process sweep runs:
// each chunk file this worker already flushed under its owner tag — before
// a kill, say — is reused once it verifies, and every other chunk is
// scanned and flushed the moment it completes.
func (w *Worker) scanUnit(ctx context.Context, plan *Plan, unit UnitID) (*checkpoint.ChunkProgress, *scan.SweepHealth, error) {
	env, spans, err := w.day(ctx, plan, unit.Day)
	if err != nil {
		return nil, nil, err
	}
	// The plan's shard count is fixed, but ShardBounds clamps to the target
	// count — indices past the span list are legitimately empty units whose
	// manifest has no chunks and contributes no records to the merge.
	var span scan.Span
	if unit.Shard < len(spans) {
		span = spans[unit.Shard]
	}
	store := &scan.ChunkStore{Dir: w.cfg.Store, Shard: unit.Shard, Owner: w.chunkOwner(plan), Worker: w.cfg.Name,
		Progress: checkpoint.NewChunkProgress(scan.ChunkSize(plan.Chunk), span.Len())}
	// The records stay in the chunk files; the merge reads them from there.
	health, err := env.ScanSpan(ctx, unit.Day, span, store, func(...dataset.Record) error { return nil })
	if err != nil {
		return nil, nil, fmt.Errorf("dsweep: worker %s: unit %s: %w", w.cfg.Name, unit, err)
	}
	return store.Progress, health, nil
}

// startHeartbeat extends the lease on a ttl/3 cadence until stopped. A
// failing heartbeat (lease already expired, coordinator restarted) stops
// the loop but not the unit: the late completion is still settled safely
// by checksum on the coordinator side.
func (w *Worker) startHeartbeat(ctx context.Context, leaseID string, ttl time.Duration) (stop func()) {
	interval := ttl / 3
	if interval <= 0 {
		interval = 10 * time.Millisecond
	}
	done := make(chan struct{})
	var once sync.Once
	go func() {
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-done:
				return
			case <-ctx.Done():
				return
			case <-t.C:
				if err := w.cfg.Coord.Heartbeat(ctx, leaseID); err != nil {
					slog.Warn("worker: heartbeat failed", "worker", w.cfg.Name, "lease", leaseID, "err", err)
					return
				}
			}
		}
	}()
	return func() { once.Do(func() { close(done) }) }
}
