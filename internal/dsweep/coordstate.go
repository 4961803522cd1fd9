package dsweep

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// persistedUnit is one completed unit in the coordinator's ledger: the
// chunk manifest the merge will verify and stream.
type persistedUnit struct {
	Unit     UnitID                    `json:"unit"`
	Worker   string                    `json:"worker"`
	Manifest *checkpoint.ChunkProgress `json:"manifest"`
}

// persistedLease is one outstanding lease in the coordinator state file.
// Expiry is persisted as absolute wall-clock time: after a coordinator
// restart the lease either still has budget or is immediately expired and
// re-leased — both are safe, since completions settle by checksum.
type persistedLease struct {
	ID      string    `json:"id"`
	Unit    UnitID    `json:"unit"`
	Worker  string    `json:"worker"`
	Expires time.Time `json:"expires"`
}

// coordState is the layout of the coordinator's ledger
// (checkpoint.CoordLedger): completed units with their manifests,
// outstanding leases, and the sweep's fault counters. It is rewritten
// atomically after every mutation, so a coordinator killed at any instant
// restarts into a consistent lease table.
type coordState struct {
	// Fingerprint and Shards guard against restoring state into a
	// different sweep configuration.
	Fingerprint string `json:"fingerprint"`
	Shards      int    `json:"shards"`
	// Seq continues the lease ID sequence across restarts so re-granted
	// leases never reuse an ID a straggler may still report under.
	Seq       int              `json:"seq"`
	Stats     Stats            `json:"stats"`
	Completed []persistedUnit  `json:"completed"`
	Leases    []persistedLease `json:"leases"`

	HealthByDay    map[simtime.Day]*scan.SweepHealth `json:"health_by_day,omitempty"`
	HealthByWorker map[string]*scan.SweepHealth      `json:"health_by_worker,omitempty"`
}

// saveLocked atomically persists the coordinator's state. Called with c.mu
// held, after every mutation — a coordinator killed between two calls
// restarts at the previous consistent state, never a torn one.
func (c *Coordinator) saveLocked() error {
	st := coordState{
		Fingerprint:    c.cfg.Plan.Fingerprint,
		Shards:         c.cfg.Plan.Shards,
		Seq:            c.seq,
		Stats:          c.stats,
		HealthByDay:    c.healthDay,
		HealthByWorker: c.healthWkr,
	}
	for _, id := range c.order {
		if u := c.units[id]; u.manifest != nil {
			st.Completed = append(st.Completed, persistedUnit{Unit: id, Worker: u.worker, Manifest: u.manifest})
		}
	}
	for _, l := range c.leases {
		st.Leases = append(st.Leases, persistedLease{ID: l.id, Unit: l.unit, Worker: l.worker, Expires: l.expires})
	}
	data, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		return fmt.Errorf("dsweep: encoding coordinator state: %w", err)
	}
	return dataset.WriteFileAtomic(filepath.Join(c.cfg.Store.Dir(), checkpoint.CoordLedger), append(data, '\n'))
}

// restore loads persisted coordinator state, if any. Completed units are
// adopted with their manifests (counted in Stats.Recovered; the chunk files
// are verified when the merge reads them), outstanding leases resume with
// their original absolute deadlines. State written under a different
// fingerprint or shard count is refused: mixing two sweeps' lease tables
// would fabricate data.
func (c *Coordinator) restore() error {
	data, err := os.ReadFile(filepath.Join(c.cfg.Store.Dir(), checkpoint.CoordLedger))
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("dsweep: reading coordinator state: %w", err)
	}
	var st coordState
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("dsweep: corrupt coordinator state %s: %w", checkpoint.CoordLedger, err)
	}
	if st.Fingerprint != c.cfg.Plan.Fingerprint {
		return fmt.Errorf("dsweep: coordinator state in %s belongs to a different sweep (fingerprint %q, this run %q)",
			c.cfg.Store.Dir(), st.Fingerprint, c.cfg.Plan.Fingerprint)
	}
	if st.Shards != c.cfg.Plan.Shards {
		return fmt.Errorf("dsweep: coordinator state has %d shards per day, this run wants %d", st.Shards, c.cfg.Plan.Shards)
	}
	c.seq = st.Seq
	c.stats = st.Stats
	c.stats.Units = c.cfg.Plan.Units()
	c.stats.Recovered = 0 // recount: "restored at this startup", not cumulative
	for _, pu := range st.Completed {
		u := c.units[pu.Unit]
		if u == nil {
			return fmt.Errorf("dsweep: coordinator state completes unit %s, which is not in this plan", pu.Unit)
		}
		if pu.Manifest == nil {
			return fmt.Errorf("dsweep: coordinator state completes unit %s without a chunk manifest", pu.Unit)
		}
		if err := pu.Manifest.WellFormed(scan.ChunkSize(c.cfg.Plan.Chunk)); err != nil {
			return fmt.Errorf("dsweep: coordinator state completes unit %s: %w", pu.Unit, err)
		}
		if u.manifest == nil {
			c.stats.Recovered++
		}
		u.manifest, u.worker = pu.Manifest, pu.Worker
	}
	for _, pl := range st.Leases {
		u := c.units[pl.Unit]
		if u == nil || u.manifest != nil || u.lease != nil {
			continue // lease for a unit that is gone, done, or double-listed
		}
		l := &lease{id: pl.ID, unit: pl.Unit, worker: pl.Worker, expires: pl.Expires}
		u.lease = l
		c.leases[l.id] = l
	}
	if st.HealthByDay != nil {
		c.healthDay = st.HealthByDay
	}
	if st.HealthByWorker != nil {
		c.healthWkr = st.HealthByWorker
	}
	slog.Warn("coordinator: restored state", "done", c.doneCountLocked(), "units", len(c.order), "leases", len(c.leases))
	return nil
}
