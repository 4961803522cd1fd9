package dsweep

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// Plan is the sweep's work definition.
	Plan Plan
	// Store is the shared checkpoint directory workers flush chunks into.
	Store *checkpoint.Store
	// LeaseTTL is the lease deadline budget (default 30s). A worker that
	// neither completes nor heartbeats within it loses the unit.
	LeaseTTL time.Duration
	// Now is the clock (default time.Now); injectable for tests.
	Now func() time.Time
}

// Stats is the coordinator's fault accounting.
type Stats struct {
	// Units is the plan's total work unit count.
	Units int `json:"units"`
	// Done is the number of completed units.
	Done int `json:"done"`
	// Recovered counts units restored as already-complete from persisted
	// state at startup (a coordinator restart).
	Recovered int `json:"recovered"`
	// Releases counts expired leases returned to the pool for re-leasing.
	Releases int `json:"releases"`
	// Duplicates counts completions of already-done units with identical
	// checksums (stragglers finishing after a re-lease).
	Duplicates int `json:"duplicates"`
	// Divergent counts completions of already-done units with different
	// checksums (distinct vantage-point profiles); settled by value order.
	Divergent int `json:"divergent"`
	// Rejected counts completions whose chunk files failed verification.
	Rejected int `json:"rejected"`
}

// unit is one work unit's live state.
type unit struct {
	manifest *checkpoint.ChunkProgress // non-nil once the unit is done
	worker   string                    // completer (first accepted, or divergence winner)
	lease    *lease                    // active lease, nil when pending or done
}

// lease is one outstanding work grant.
type lease struct {
	id      string
	unit    UnitID
	worker  string
	expires time.Time
}

// Coordinator owns a sweep plan: it grants leases over (day, shard) units,
// re-leases expired ones, settles duplicate completions by checksum,
// persists every state change, and streams the final CRC-verified merge.
// Its lease/heartbeat/complete methods are safe for concurrent use and
// implement Coordination directly for in-process workers.
type Coordinator struct {
	cfg   CoordinatorConfig
	order []UnitID // deterministic grant order: plan days × shard index

	mu        sync.Mutex
	units     map[UnitID]*unit
	leases    map[string]*lease
	seq       int
	stats     Stats
	healthDay map[simtime.Day]*scan.SweepHealth
	healthWkr map[string]*scan.SweepHealth
	doneCh    chan struct{}
	// wake is closed, and replaced, when a unit completes, a lease expires
	// or the coordinator closes: whatever a Lease waiting on it waits for.
	wake    chan struct{}
	closed  bool
	release func() error // checkpoint dir lock
}

// NewCoordinator opens (and locks) the checkpoint directory, restores any
// persisted coordinator state under the same plan fingerprint, and returns
// a coordinator ready to grant leases. State persisted under a different
// fingerprint is refused rather than mixed in.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if err := cfg.Plan.validate(); err != nil {
		return nil, err
	}
	if cfg.Store == nil {
		return nil, fmt.Errorf("dsweep: coordinator requires a checkpoint store")
	}
	if cfg.LeaseTTL <= 0 {
		cfg.LeaseTTL = 30 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	release, err := cfg.Store.AcquireLock("dsweep-coordinator", cfg.Plan.Fingerprint)
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		cfg:       cfg,
		units:     make(map[UnitID]*unit),
		leases:    make(map[string]*lease),
		healthDay: make(map[simtime.Day]*scan.SweepHealth),
		healthWkr: make(map[string]*scan.SweepHealth),
		doneCh:    make(chan struct{}),
		wake:      make(chan struct{}),
		release:   release,
	}
	c.stats.Units = cfg.Plan.Units()
	for _, day := range cfg.Plan.Days {
		for k := 0; k < cfg.Plan.Shards; k++ {
			id := UnitID{Day: day, Shard: k}
			c.order = append(c.order, id)
			c.units[id] = &unit{}
		}
	}
	if err := c.restore(); err != nil {
		release()
		return nil, err
	}
	if c.allDoneLocked() {
		close(c.doneCh)
	}
	return c, nil
}

// Close releases the checkpoint directory lock, and a Lease waiting or yet
// to come answers GrantWait at once. The persisted state stays behind for a
// restart; Clear the store once the merged archive is durable.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	c.closed = true
	c.wakeLocked()
	rel := c.release
	c.release = nil
	c.mu.Unlock()
	if rel == nil {
		return nil
	}
	return rel()
}

// wakeLocked wakes every Lease waiting for the pool to change.
func (c *Coordinator) wakeLocked() {
	close(c.wake)
	c.wake = make(chan struct{})
}

// Done is closed once every unit of the plan is complete.
func (c *Coordinator) Done() <-chan struct{} { return c.doneCh }

// Stats returns a snapshot of the fault accounting.
func (c *Coordinator) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Done = c.doneCountLocked()
	return s
}

// Health returns the merged per-day and per-worker sweep health reports.
// Attribution follows accepted completions: a straggler's duplicate report
// is not double-counted.
func (c *Coordinator) Health() (byDay map[simtime.Day]*scan.SweepHealth, byWorker map[string]*scan.SweepHealth) {
	c.mu.Lock()
	defer c.mu.Unlock()
	byDay = make(map[simtime.Day]*scan.SweepHealth, len(c.healthDay))
	for d, h := range c.healthDay {
		merged := &scan.SweepHealth{Day: d}
		merged.Merge(h)
		byDay[d] = merged
	}
	byWorker = make(map[string]*scan.SweepHealth, len(c.healthWkr))
	for w, h := range c.healthWkr {
		merged := &scan.SweepHealth{Day: h.Day}
		merged.Merge(h)
		byWorker[w] = merged
	}
	return byDay, byWorker
}

// FetchPlan implements Coordination.
func (c *Coordinator) FetchPlan(context.Context) (*Plan, error) {
	plan := c.cfg.Plan
	plan.Days = append([]simtime.Day(nil), c.cfg.Plan.Days...)
	return &plan, nil
}

// expireLocked sweeps the lease table, returning expired units to the
// pool. Reports whether anything changed.
func (c *Coordinator) expireLocked(now time.Time) bool {
	changed := false
	for id, l := range c.leases {
		if !now.After(l.expires) {
			continue
		}
		delete(c.leases, id)
		u := c.units[l.unit]
		if u != nil && u.lease == l {
			u.lease = nil
			c.stats.Releases++
			changed = true
			c.wakeLocked()
			slog.Warn("coordinator: lease expired; unit returns to the pool", "lease", id, "unit", l.unit, "worker", l.worker)
		}
	}
	return changed
}

// Lease implements Coordination: grant the first pending unit in plan
// order, after returning any expired leases to the pool. While every
// pending unit is leased it waits — until a unit completes or a lease
// expires — and answers GrantWait only once ctx is done or the coordinator
// closed.
func (c *Coordinator) Lease(ctx context.Context, worker string) (*Grant, error) {
	if worker == "" {
		return nil, fmt.Errorf("dsweep: lease request without a worker id")
	}
	for {
		grant, wake, expiry, err := c.grant(worker)
		if grant != nil || err != nil {
			return grant, err
		}
		t := time.NewTimer(expiry)
		select {
		case <-wake:
		case <-t.C:
		case <-ctx.Done():
		}
		t.Stop()
		if ctx.Err() != nil {
			return &Grant{Status: GrantWait}, nil
		}
	}
}

// grant is one round of Lease. With every pending unit leased it grants
// nothing and returns what to wait on: the channel closed when the pool
// changes, and the time until the first lease expires.
func (c *Coordinator) grant(worker string) (*Grant, <-chan struct{}, time.Duration, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.cfg.Now()
	changed := c.expireLocked(now)
	var grant *Grant
	var expires time.Time // the first deadline of a live lease
	for _, id := range c.order {
		u := c.units[id]
		if u.manifest != nil {
			continue
		}
		if u.lease != nil {
			if expires.IsZero() || u.lease.expires.Before(expires) {
				expires = u.lease.expires
			}
			continue
		}
		c.seq++
		l := &lease{
			id:      fmt.Sprintf("L%06d", c.seq),
			unit:    id,
			worker:  worker,
			expires: now.Add(c.cfg.LeaseTTL),
		}
		u.lease = l
		c.leases[l.id] = l
		grant = &Grant{Status: GrantRun, LeaseID: l.id, Unit: id, TTLMillis: c.cfg.LeaseTTL.Milliseconds()}
		changed = true
		break
	}
	if changed {
		if err := c.saveLocked(); err != nil {
			return nil, nil, 0, err
		}
	}
	switch {
	case grant != nil:
		slog.Info("coordinator: leased unit", "unit", grant.Unit, "worker", worker, "lease", grant.LeaseID)
		return grant, nil, 0, nil
	case expires.IsZero():
		return &Grant{Status: GrantDone}, nil, 0, nil
	case c.closed:
		return &Grant{Status: GrantWait}, nil, 0, nil
	}
	// A lease expires once the clock is past its deadline.
	return nil, c.wake, expires.Sub(now) + time.Millisecond, nil
}

// Heartbeat implements Coordination: extend the lease's deadline. An
// unknown lease (expired and re-granted, or pre-restart) is an error the
// worker may ignore — its completion will still be settled by checksum.
func (c *Coordinator) Heartbeat(_ context.Context, leaseID string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.leases[leaseID]
	if l == nil {
		return fmt.Errorf("dsweep: unknown or expired lease %s", leaseID)
	}
	l.expires = c.cfg.Now().Add(c.cfg.LeaseTTL)
	return nil
}

// compareManifests is the deterministic value ordering over two well-formed
// manifests of one unit: lexicographic over their chunks' (CRC, records).
// Zero means identical content — file names are excluded, since each worker
// writes its own owner-tagged files and equal CRC and count over the same
// section format mean equal bytes; otherwise the smaller manifest wins a
// divergence, independently of arrival order.
func compareManifests(a, b *checkpoint.ChunkProgress) int {
	for c := 0; c < a.Chunks && c < b.Chunks; c++ {
		x, y := a.Done[c], b.Done[c]
		if d := cmp.Compare(x.CRC, y.CRC); d != 0 {
			return d
		}
		if d := cmp.Compare(x.Records, y.Records); d != 0 {
			return d
		}
	}
	return cmp.Compare(a.Chunks, b.Chunks)
}

// Complete implements Coordination: settle a completion report. A manifest
// is verified against its chunk files before it is adopted — as a unit's
// first completion, or as the winner of a divergence — so a worker with a
// sick disk cannot poison the merge; a duplicate of an already-done unit is
// resolved by checksum, never by arrival order.
func (c *Coordinator) Complete(_ context.Context, req *CompleteRequest) (*CompleteReply, error) {
	if req == nil || req.Manifest == nil {
		return nil, fmt.Errorf("dsweep: empty completion")
	}
	if req.Fingerprint != c.cfg.Plan.Fingerprint {
		return nil, fmt.Errorf("dsweep: completion for fingerprint %q, this sweep is %q", req.Fingerprint, c.cfg.Plan.Fingerprint)
	}
	if err := req.Manifest.WellFormed(scan.ChunkSize(c.cfg.Plan.Chunk)); err != nil {
		return nil, fmt.Errorf("dsweep: completion of %s: %w", req.Unit, err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	u := c.units[req.Unit]
	if u == nil {
		return nil, fmt.Errorf("dsweep: completion for unknown unit %s", req.Unit)
	}
	// The reporting lease is spent either way.
	if l := c.leases[req.LeaseID]; l != nil {
		delete(c.leases, req.LeaseID)
		if lu := c.units[l.unit]; lu != nil && lu.lease == l {
			lu.lease = nil
		}
	}

	status, adopt := CompleteAccepted, true
	if u.manifest != nil {
		// Straggler: the unit was re-leased and already completed by
		// someone. Same bytes → idempotent acknowledgement; different
		// bytes → the fixed value ordering picks the winner.
		c.stats.Duplicates++
		status, adopt = CompleteDuplicate, false
		if d := compareManifests(req.Manifest, u.manifest); d != 0 {
			c.stats.Divergent++
			status, adopt = CompleteDivergent, d < 0
			slog.Warn("coordinator: divergent duplicate completion", "unit", req.Unit, "accepted", u.worker, "worker", req.Worker, "lease", req.LeaseID)
		}
	}
	if adopt {
		// Verify the chunk files the way the merge will: recorded CRC,
		// trailers and record count of every chunk.
		err := c.cfg.Store.AppendUnit(req.Unit.Day, req.Manifest, func(...dataset.Record) error { return nil })
		if err != nil {
			c.stats.Rejected++
			status = CompleteRejected
			slog.Warn("coordinator: rejected completion", "unit", req.Unit, "worker", req.Worker, "lease", req.LeaseID, "err", err)
		} else {
			if u.manifest == nil {
				c.mergeHealthLocked(req)
				slog.Info("coordinator: unit completed", "unit", req.Unit, "worker", req.Worker, "lease", req.LeaseID,
					"chunks", req.Manifest.Chunks, "done", c.doneCountLocked()+1, "units", len(c.order))
			}
			u.manifest, u.worker = req.Manifest, req.Worker
		}
	}
	c.wakeLocked()
	if err := c.saveLocked(); err != nil {
		return nil, err
	}
	done := c.allDoneLocked()
	if done && status == CompleteAccepted {
		close(c.doneCh)
	}
	return &CompleteReply{Status: status, Done: done}, nil
}

// mergeHealthLocked folds an accepted completion's health report into the
// per-day and per-worker aggregates.
func (c *Coordinator) mergeHealthLocked(req *CompleteRequest) {
	if req.Health == nil {
		return
	}
	dh := c.healthDay[req.Unit.Day]
	if dh == nil {
		dh = &scan.SweepHealth{Day: req.Unit.Day}
		c.healthDay[req.Unit.Day] = dh
	}
	dh.Merge(req.Health)
	wh := c.healthWkr[req.Worker]
	if wh == nil {
		wh = &scan.SweepHealth{Day: req.Unit.Day}
		c.healthWkr[req.Worker] = wh
	}
	wh.Merge(req.Health)
}

// doneCountLocked counts completed units.
func (c *Coordinator) doneCountLocked() int {
	n := 0
	for _, u := range c.units {
		if u.manifest != nil {
			n++
		}
	}
	return n
}

// allDoneLocked reports whether every unit is complete.
func (c *Coordinator) allDoneLocked() bool { return c.doneCountLocked() == len(c.order) }

// Merge streams the final archive a day at a time, in plan order: every
// unit of the day is verified and appended (checkpoint.Store.AppendUnit) to
// a spill writer bounded by spill, and the writer — which emits the
// (TLD, domain) order a single-process ResumableSweep's day has, so the
// output bytes match — is handed to sink, then closed. Memory is bounded by
// the spill budget, not by the sweep.
func (c *Coordinator) Merge(spill dataset.SpillOptions, sink scan.DaySink) error {
	c.mu.Lock()
	if !c.allDoneLocked() {
		c.mu.Unlock()
		return fmt.Errorf("dsweep: merge before completion (%d/%d units done)", c.doneCountLocked(), len(c.order))
	}
	// A straggler may still settle a divergence while the merge runs: merge
	// the manifests as they stand now, without holding the lock over I/O.
	manifests := make(map[UnitID]*checkpoint.ChunkProgress, len(c.order))
	for id, u := range c.units {
		manifests[id] = u.manifest
	}
	c.mu.Unlock()

	for _, day := range c.cfg.Plan.Days {
		sw := dataset.NewSpillWriter(day, spill)
		var err error
		for k := 0; k < c.cfg.Plan.Shards && err == nil; k++ {
			id := UnitID{Day: day, Shard: k}
			if err = c.cfg.Store.AppendUnit(day, manifests[id], sw.Append); err != nil {
				err = fmt.Errorf("dsweep: merge: unit %s: %w", id, err)
			}
		}
		if err == nil {
			err = sink(day, sw)
		}
		if cerr := sw.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			return err
		}
	}
	return nil
}
