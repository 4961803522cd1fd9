// Package dsweep lifts scan.ResumableSweep into a crash-tolerant
// multi-process topology: a coordinator that owns the sweep plan and
// leases (day, shard) work units with deadlines, and workers that claim
// leases, scan their shard chunk by chunk through their own exchange
// stack, durably flush every chunk via internal/checkpoint, and report the
// finished unit as a manifest of those chunk files. The paper's
// longitudinal evidence is an OpenINTEL-style archive measured daily from
// multiple vantage points for 21 months — a sweep that long only finishes
// if the pipeline shrugs off worker crashes, stragglers, and coordinator
// restarts.
//
// A finished unit is what it is in a single-process sweep: a
// checkpoint.ChunkProgress naming each chunk file with its CRC32C and
// record count, recorded in the coordinator's ledger (coordinator.json).
//
// Robustness contract:
//
//   - A worker killed mid-shard leaves behind only the owner-tagged chunk
//     files it had flushed; its lease expires and the unit is re-leased to
//     any live worker, and the same worker restarted rebuilds its progress
//     from its own files and scans only the rest.
//   - A straggler that finishes after its unit was re-leased produces a
//     duplicate completion. Duplicates are resolved deterministically by
//     checksum — same bytes are acknowledged idempotently, divergent bytes
//     (distinct vantage-point fault profiles) are settled by a fixed
//     value ordering, never by arrival order — and a manifest is verified
//     against its files before it is adopted, first or duplicate.
//   - The coordinator persists lease and completion state atomically after
//     every mutation, so a coordinator restart resumes the sweep instead
//     of restarting it.
//   - The final merge re-verifies every chunk against its recorded CRC,
//     its trailers and its record count, and emits each day in canonical
//     order: an archive byte-identical to an uninterrupted single-process
//     ResumableSweep of the same plan.
//
// Workers share the coordinator's checkpoint directory (same filesystem —
// locally, or via shared storage), the same role OpenINTEL's central
// collection store plays for its distributed vantage points. The control
// plane is tiny (lease/heartbeat/complete) and travels either by direct
// method call (in-process workers, the chaos harness) or HTTP+JSON
// (cmd/regsec-sweepd plus regsec-scan -worker).
package dsweep

import (
	"context"
	"fmt"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// UnitID names one (day, shard) work unit of a sweep plan.
type UnitID struct {
	Day   simtime.Day `json:"day"`
	Shard int         `json:"shard"`
}

// String renders "YYYY-MM-DD/shard".
func (u UnitID) String() string { return fmt.Sprintf("%s/%d", u.Day, u.Shard) }

// Plan is a sweep's immutable work definition. The fingerprint binds
// persisted coordinator state and worker completions to one configuration,
// exactly as checkpoint.State's fingerprint does for single-process runs.
type Plan struct {
	Fingerprint string        `json:"fingerprint"`
	Days        []simtime.Day `json:"days"`
	// Shards is the number of work units per day; every participant splits
	// a day's target cursor with scan.ShardBounds(n, Shards).
	Shards int `json:"shards"`
	// Chunk is the targets-per-chunk size each shard is scanned in (zero
	// selects scan.DefaultChunk): every completed chunk is durably flushed,
	// so a killed worker resumes its shard at the last flushed chunk. The
	// value shapes the durable chunk files, so it is part of the plan (and
	// its fingerprint) like Shards.
	Chunk int `json:"chunk,omitempty"`
	// Spec, when set, is the sweep definition the fingerprint encodes: what
	// Sweep and Fleet run, and what a remote worker rebuilds the sweep
	// environment from.
	Spec *WorldSpec `json:"spec,omitempty"`
}

// Units is the plan's total work unit count.
func (p *Plan) Units() int { return len(p.Days) * p.Shards }

// validate rejects unusable plans before any state is touched.
func (p *Plan) validate() error {
	switch {
	case p.Fingerprint == "":
		return fmt.Errorf("dsweep: plan requires a fingerprint")
	case len(p.Days) == 0:
		return fmt.Errorf("dsweep: plan has no days")
	case p.Shards < 1:
		return fmt.Errorf("dsweep: plan needs at least 1 shard per day, have %d", p.Shards)
	case p.Chunk < 0:
		return fmt.Errorf("dsweep: plan chunk size must be non-negative, have %d", p.Chunk)
	case p.Spec != nil && p.Spec.Fingerprint(p.Days, p.Shards, p.Chunk) != p.Fingerprint:
		// A coordinator and a worker of different builds: the worker would
		// sweep its own reading of the spec under the coordinator's name.
		return fmt.Errorf("dsweep: plan fingerprint %q is not its spec's (%q)",
			p.Fingerprint, p.Spec.Fingerprint(p.Days, p.Shards, p.Chunk))
	}
	return CheckDays(p.Days)
}

// CheckDays requires a plan's days to ascend strictly: a sweep writes its
// archive's sections in plan order, and the archive's readers fold them
// oldest first.
func CheckDays(days []simtime.Day) error {
	for i := 1; i < len(days); i++ {
		if days[i] <= days[i-1] {
			return fmt.Errorf("dsweep: plan day %s does not follow %s (days must ascend, each once)", days[i], days[i-1])
		}
	}
	return nil
}

// GrantStatus is the coordinator's answer class to a lease request.
type GrantStatus string

const (
	// GrantRun carries a lease: scan the unit and complete it.
	GrantRun GrantStatus = "run"
	// GrantWait means every pending unit stayed leased for as long as the
	// request could wait; ask again.
	GrantWait GrantStatus = "wait"
	// GrantDone means every unit is complete; the worker can exit.
	GrantDone GrantStatus = "done"
)

// Grant is the coordinator's reply to a lease request.
type Grant struct {
	Status  GrantStatus `json:"status"`
	LeaseID string      `json:"lease_id,omitempty"`
	Unit    UnitID      `json:"unit"`
	// TTLMillis is the lease budget: the worker must complete or heartbeat
	// within it, or the unit is re-leased to someone else.
	TTLMillis int64 `json:"ttl_millis,omitempty"`
}

// CompleteRequest reports one finished unit: the manifest of the chunk
// files the worker flushed into the shared checkpoint directory, plus the
// shard's health accounting for per-worker attribution.
type CompleteRequest struct {
	LeaseID string `json:"lease_id"`
	Worker  string `json:"worker"`
	Unit    UnitID `json:"unit"`
	// Fingerprint guards against a worker reporting into the wrong sweep.
	Fingerprint string                    `json:"fingerprint"`
	Manifest    *checkpoint.ChunkProgress `json:"manifest"`
	Health      *scan.SweepHealth         `json:"health,omitempty"`
}

// CompleteStatus classifies how a completion was settled.
type CompleteStatus string

const (
	// CompleteAccepted: first completion of the unit; it is now done.
	CompleteAccepted CompleteStatus = "accepted"
	// CompleteDuplicate: the unit was already done with identical bytes
	// (a straggler finishing after a re-lease); acknowledged idempotently.
	CompleteDuplicate CompleteStatus = "duplicate"
	// CompleteDivergent: the unit was already done with different bytes;
	// the winner was chosen by the deterministic checksum ordering.
	CompleteDivergent CompleteStatus = "divergent"
	// CompleteRejected: the manifest's chunk files failed verification on
	// the coordinator's side; a first completion's unit returns to the pool,
	// a duplicate leaves the accepted manifest in place.
	CompleteRejected CompleteStatus = "rejected"
)

// CompleteReply is the coordinator's answer to a completion report.
type CompleteReply struct {
	Status CompleteStatus `json:"status"`
	// Done reports that this completion finished the whole plan, so the
	// worker can exit without another lease round-trip — which matters
	// because the coordinator may stop serving the moment the plan is done.
	Done bool `json:"done,omitempty"`
}

// Coordination is the worker's view of a coordinator. The *Coordinator
// type implements it directly (in-process topologies, the chaos harness);
// *Client implements it over HTTP for separate worker processes.
type Coordination interface {
	// FetchPlan returns the sweep plan.
	FetchPlan(ctx context.Context) (*Plan, error)
	// Lease asks for the next work unit, waiting while every pending unit
	// is leased.
	Lease(ctx context.Context, worker string) (*Grant, error)
	// Heartbeat extends a held lease's deadline.
	Heartbeat(ctx context.Context, leaseID string) error
	// Complete reports a finished unit.
	Complete(ctx context.Context, req *CompleteRequest) (*CompleteReply, error)
}
