package scan

import (
	"context"
	"errors"
	"fmt"
	"log/slog"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// The sweep pipeline: at full-`.com` scale neither the target list nor a
// day's snapshot fits in RAM, so a sweep walks a random-access target
// cursor in fixed-size chunks, materializes each chunk's DNS lazily, scans
// it with ScanDay, and flushes the chunk's canonicalized records before
// touching the next chunk. Because every per-target outcome is a pure
// function of the zone data and the fault schedule (see the package
// determinism contract, and faultnet's per-question fault hashing), the
// concatenation of chunk results is record-identical to one ScanDay over
// all the targets at every chunk size — a chunk at least as large as the
// sample simply materializes and scans the day once.

// DefaultChunk is the chunk size when none is configured: targets per
// materialize+scan+flush unit.
const DefaultChunk = 4096

// ChunkSize returns the effective chunk size for a configured value:
// anything below 1 selects DefaultChunk.
func ChunkSize(n int) int {
	if n <= 0 {
		return DefaultChunk
	}
	return n
}

// TargetSource is a random-access cursor over a day's scan targets.
// Implementations index straight into a backing store (an mmap'd
// colstore.Index, a tldsim world, a slice) so the full target list is
// never materialized. Target returns bare strings rather than a Target
// struct so backing stores can implement the interface without importing
// this package.
type TargetSource interface {
	// Len is the number of targets.
	Len() int
	// Target returns target i's domain name and TLD.
	Target(i int) (domain, tld string)
}

// ChunkPrepare readies the scanning environment for the cursor span
// [lo, hi) before it is scanned — the hook where a simulated world
// materializes just that chunk's signed DNS, bounding zone memory and
// signing cost by the chunk size instead of the day.
type ChunkPrepare func(ctx context.Context, lo, hi int) error

// Span is a half-open index range [Lo, Hi) over a TargetSource.
type Span struct{ Lo, Hi int }

// Len returns the span's target count.
func (s Span) Len() int { return s.Hi - s.Lo }

// ShardBounds partitions n cursor positions into contiguous shard spans
// (the first n%shards spans get one extra position; more shards than
// positions clamps to one position each). The split is a pure function of
// n, so an interrupted run, its resume, and every worker of a distributed
// sweep agree on every shard boundary.
func ShardBounds(n, shards int) []Span {
	if shards > n && n > 0 {
		shards = n
	}
	if shards <= 0 {
		shards = 1
	}
	out := make([]Span, 0, shards)
	size, rem := n/shards, n%shards
	start := 0
	for i := 0; i < shards; i++ {
		end := start + size
		if i < rem {
			end++
		}
		out = append(out, Span{Lo: start, Hi: end})
		start = end
	}
	return out
}

// StreamDaySetup materializes the scan environment for one day: the
// scanner, a random-access target cursor, and an optional per-chunk
// prepare hook (nil when the scanning substrate needs no per-chunk work).
// It is called lazily — a day fully verified from the checkpoint never
// pays for a setup.
type StreamDaySetup func(ctx context.Context, day simtime.Day) (*Scanner, TargetSource, ChunkPrepare, error)

// DayEnv is one day's scan environment as a StreamDaySetup yields it; it
// also holds the chunk loop's reusable target buffer.
type DayEnv struct {
	Scanner *Scanner
	Source  TargetSource
	Prepare ChunkPrepare
	buf     []Target
}

// ChunkStore is one shard's durable chunk ledger as the chunk loop uses it:
// chunks recorded in Progress are reused once their file verifies against
// the recorded checksum, and every fresh chunk is written and recorded
// before the loop moves on. The single-process sweep and a distributed
// worker run the same store; they differ in who persists the ledger.
type ChunkStore struct {
	// Dir holds the chunk files; nil runs the loop without durability.
	Dir *checkpoint.Store
	// Shard is the shard index the chunk files are named for.
	Shard int
	// Owner tags a distributed worker's chunk files; empty for the
	// single-process sweep.
	Owner string
	// Progress is the shard's geometry and its recorded chunks.
	Progress *checkpoint.ChunkProgress
	// Persist makes the ledger holding Progress durable after a chunk is
	// recorded. A worker has nothing to do here: its ledger is the
	// directory itself (checkpoint.Store.RecoverChunks).
	Persist func() error
}

// load returns chunk c's durable snapshot, or nil when there is none to
// reuse (never recorded, or damaged — then it is dropped from Progress).
func (s *ChunkStore) load(day simtime.Day, c int) *dataset.Snapshot {
	// Without a directory nothing is ever recorded in Progress.Done.
	meta := s.Progress.Done[c]
	if meta == nil {
		return nil
	}
	snap, err := s.Dir.LoadChunk(day, meta)
	if err != nil {
		slog.Warn("resume: chunk damaged, re-scanning", "day", day, "shard", s.Shard, "chunk", c, "chunks", s.Progress.Chunks, "err", err)
		delete(s.Progress.Done, c)
		return nil
	}
	slog.Warn("resume: chunk verified from checkpoint", "day", day, "shard", s.Shard, "chunk", c, "chunks", s.Progress.Chunks,
		"records", len(snap.Records))
	return snap
}

// flush makes chunk c's freshly scanned snapshot durable and records it.
func (s *ChunkStore) flush(day simtime.Day, c int, snap *dataset.Snapshot) error {
	if s.Dir == nil {
		return nil
	}
	meta, err := s.Dir.WriteChunk(day, s.Shard, c, s.Owner, snap)
	if err != nil {
		return fmt.Errorf("flushing chunk %d: %w", c, err)
	}
	s.Progress.Done[c] = meta
	return s.Persist()
}

// ScanSpan is the chunk loop: it walks the cursor span in steps of the
// store's chunk size and, per chunk, either reuses the durable snapshot the
// store holds or prepares, scans, canonicalizes and flushes a fresh one,
// then hands the chunk's records to emit. It returns the span's aggregated
// health — also on error, where it covers the chunks reached so far.
//
// The ledger stays exact under chunking: each chunk's ScanDay balances
// Targets == Measured + Unregistered + skipped + failed, and every counter
// is commutative under Merge, so the aggregate balances too — including
// after a cancellation, where chunks never started do not enter it.
func (e *DayEnv) ScanSpan(ctx context.Context, day simtime.Day, span Span, store *ChunkStore, emit func(recs ...dataset.Record) error) (*SweepHealth, error) {
	health := &SweepHealth{Day: day, ByClass: make(map[FailClass]int)}
	chunk := store.Progress.Chunk
	for c, lo := 0, span.Lo; lo < span.Hi; c, lo = c+1, lo+chunk {
		hi := min(lo+chunk, span.Hi)
		snap := store.load(day, c)
		if snap != nil {
			health.Merge(healthFromSnapshot(day, hi-lo, snap))
		} else {
			if e.Prepare != nil {
				if err := e.Prepare(ctx, lo, hi); err != nil {
					return health, err
				}
			}
			e.buf = e.buf[:0]
			for i := lo; i < hi; i++ {
				d, tld := e.Source.Target(i)
				e.buf = append(e.buf, Target{Domain: d, TLD: tld})
			}
			var h *SweepHealth
			var err error
			snap, h, err = e.Scanner.ScanDay(ctx, day, e.buf)
			health.Merge(h)
			if err != nil {
				// Interrupted mid-chunk: the partial chunk is dropped, never
				// flushed, so a resume re-scans it whole.
				return health, err
			}
			snap.Canonicalize()
			if err := store.flush(day, c, snap); err != nil {
				return health, err
			}
		}
		if err := emit(snap.Records...); err != nil {
			return health, err
		}
	}
	return health, nil
}

// DaySink receives each completed day of a sweep as a spill writer holding
// the day's full record set. The sink typically calls aw.Section(sw) to
// stream the canonical day section into an archive; the writer is closed
// by the caller after the sink returns.
type DaySink func(day simtime.Day, sw *dataset.SpillWriter) error

// ResumableSweep drives a multi-day sweep with bounded memory and
// chunk-granular durability. Each day's targets are split into a fixed
// number of shards and each shard into chunks; every completed chunk is
// durably written to the checkpoint directory before the next one starts,
// so an interruption — SIGINT, crash, kill — loses at most the chunk in
// flight. A re-run with the same configuration resumes there: finished
// days and chunks are verified by checksum instead of re-scanned, damaged
// or missing chunks are re-scanned, and the interrupted chunk is re-done
// from scratch (partial chunks are never persisted), which keeps the
// final archive byte-identical to an uninterrupted run.
type ResumableSweep struct {
	// Checkpoint persists progress; nil runs the sweep without durability
	// (output bytes are identical).
	Checkpoint *checkpoint.Store
	// Fingerprint identifies the sweep configuration. A checkpoint written
	// under a different fingerprint is refused rather than mixed in.
	Fingerprint string
	// Shards is the number of target shards per day (default 4).
	Shards int
	// StreamSetup builds the scanner, target cursor and per-chunk prepare
	// hook for one day.
	StreamSetup StreamDaySetup
	// Chunk is the targets-per-chunk size (see ChunkSize). It shapes the
	// durable chunk files, so it must be covered by the Fingerprint —
	// resuming under a different chunk size is refused at the shard level
	// regardless.
	Chunk int
	// Spill configures the per-day spill-to-disk writers.
	Spill dataset.SpillOptions
	// OnDayHealth, when set, receives each day's aggregated health report.
	OnDayHealth func(day simtime.Day, h *SweepHealth)
}

// shards returns the effective shard count.
func (rs *ResumableSweep) shards() int {
	if rs.Shards <= 0 {
		return 4
	}
	return rs.Shards
}

// RunStream executes the sweep over days: targets come off a cursor chunk
// by chunk, every completed chunk is durably checkpointed before the next
// starts, and each day's records accumulate in a spill writer (RAM up to
// Spill.MemBudget, sorted run files beyond) handed to sink when the day
// completes. On context cancellation it persists a clean checkpoint
// (every finished chunk recorded, the interrupted chunk dropped) and
// returns the context's error; re-running with the same configuration
// picks up from there. The day sections are byte-identical to one ScanDay
// over the day's targets, canonicalized and written in RAM.
func (rs *ResumableSweep) RunStream(ctx context.Context, days []simtime.Day, sink DaySink) error {
	if rs.StreamSetup == nil {
		return fmt.Errorf("scan: RunStream requires a StreamSetup function")
	}
	st, release, err := rs.lockAndLoad()
	if err != nil {
		return err
	}
	defer release()
	for _, day := range days {
		if err := rs.runDay(ctx, day, st, sink); err != nil {
			return err
		}
	}
	return nil
}

// lockAndLoad acquires the checkpoint's single-writer lock and loads (or
// creates) the state, refusing a state written under a different
// fingerprint. With no checkpoint configured it returns a fresh in-memory
// state and a no-op release.
func (rs *ResumableSweep) lockAndLoad() (*checkpoint.State, func() error, error) {
	if rs.Checkpoint == nil {
		return checkpoint.NewState(rs.Fingerprint), func() error { return nil }, nil
	}
	// The sweep is the sole mutator of the checkpoint state for its whole
	// run: a second process resuming the same directory must fail here,
	// not interleave Save calls with us.
	release, err := rs.Checkpoint.AcquireLock("resumable-sweep", rs.Fingerprint)
	if err != nil {
		return nil, nil, err
	}
	loaded, err := rs.Checkpoint.Load()
	if err != nil {
		release()
		return nil, nil, err
	}
	if loaded != nil {
		if loaded.Fingerprint != rs.Fingerprint {
			release()
			return nil, nil, fmt.Errorf("scan: checkpoint in %s belongs to a different sweep (fingerprint %q, this run %q)",
				rs.Checkpoint.Dir(), loaded.Fingerprint, rs.Fingerprint)
		}
		return loaded, release, nil
	}
	return checkpoint.NewState(rs.Fingerprint), release, nil
}

// saveState persists the checkpoint state if checkpointing is on.
func (rs *ResumableSweep) saveState(st *checkpoint.State) error {
	if rs.Checkpoint == nil {
		return nil
	}
	return rs.Checkpoint.Save(st)
}

// runDay completes one day: a day already Done verifies from its chunk
// files; anything else walks every shard's chunks, reusing the verified
// ones and scanning the rest.
func (rs *ResumableSweep) runDay(ctx context.Context, day simtime.Day, st *checkpoint.State, sink DaySink) (err error) {
	dp := st.Day(day)
	sw := dataset.NewSpillWriter(day, rs.Spill)
	defer func() {
		if cerr := sw.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()

	// Fast path: the whole day is checkpointed — verify every chunk by
	// checksum and skip the scan (and the day's setup) entirely.
	if dp.Done && rs.Checkpoint != nil {
		ok, lerr := rs.loadDoneDay(day, dp, sw)
		if lerr != nil {
			return lerr
		}
		if ok {
			slog.Warn("resume: day verified from checkpoint, skipping scan", "day", day, "records", sw.Len())
			return finishDay(day, sw, sink)
		}
		// Some chunk is damaged or missing: demote the day, discard
		// whatever the partial verification appended, and re-enter the
		// general path with a fresh writer.
		dp.Done = false
		if serr := rs.saveState(st); serr != nil {
			return serr
		}
		if cerr := sw.Close(); cerr != nil {
			return cerr
		}
		sw = dataset.NewSpillWriter(day, rs.Spill)
	}

	env := &DayEnv{}
	if env.Scanner, env.Source, env.Prepare, err = rs.StreamSetup(ctx, day); err != nil {
		return err
	}
	chunkSz := ChunkSize(rs.Chunk)
	dayHealth := &SweepHealth{Day: day, ByClass: make(map[FailClass]int)}
	for k, span := range ShardBounds(env.Source.Len(), rs.shards()) {
		cp, err := dp.ChunkShard(k, chunkSz, span.Len())
		if err != nil {
			// The checkpoint's chunk geometry disagrees with this run's
			// plan — the recorded chunk files mean something else. Refuse,
			// like a fingerprint mismatch, rather than fabricate a day out
			// of incompatible pieces.
			return fmt.Errorf("scan: day %s: %w", day, err)
		}
		store := &ChunkStore{Dir: rs.Checkpoint, Shard: k, Progress: cp,
			Persist: func() error { return rs.saveState(st) }}
		h, err := env.ScanSpan(ctx, day, span, store, sw.Append)
		dayHealth.Merge(h)
		if err != nil {
			// Persist what is already complete and hand the caller a clean
			// resume point, with the ledger of what the day reached.
			if saveErr := rs.saveState(st); saveErr != nil {
				return fmt.Errorf("scan: %w (and checkpoint save failed: %v)", err, saveErr)
			}
			if rs.OnDayHealth != nil {
				rs.OnDayHealth(day, dayHealth)
			}
			return err
		}
	}

	dp.Done = true
	if err := rs.saveState(st); err != nil {
		return err
	}
	if rs.OnDayHealth != nil {
		rs.OnDayHealth(day, dayHealth)
	}
	return finishDay(day, sw, sink)
}

// finishDay hands the completed day to the sink.
func finishDay(day simtime.Day, sw *dataset.SpillWriter, sink DaySink) error {
	if sink == nil {
		return nil
	}
	return sink(day, sw)
}

// loadDoneDay assembles a completed day from its checkpointed units into
// sw, verifying each. ok is false if any chunk fails verification (damaged
// entries are removed so the caller re-scans just those).
func (rs *ResumableSweep) loadDoneDay(day simtime.Day, dp *checkpoint.DayProgress, sw *dataset.SpillWriter) (bool, error) {
	if len(dp.Partial) == 0 {
		// A state that calls the day done but names no chunks has nothing
		// to verify; trusting it would fabricate an empty day.
		slog.Warn("resume: day marked done without chunk progress", "day", day)
		return false, nil
	}
	for k := 0; k < len(dp.Partial); k++ {
		cp := dp.Partial[k]
		if cp == nil {
			slog.Warn("resume: shard missing from chunk progress", "day", day, "shard", k)
			return false, nil
		}
		err := rs.Checkpoint.AppendUnit(day, cp, sw.Append)
		var bad *checkpoint.ChunkError
		if errors.As(err, &bad) {
			slog.Warn("resume: chunk failed verification", "day", day, "shard", k, "chunk", bad.Chunk, "err", bad.Err)
			delete(cp.Done, bad.Chunk)
			return false, nil
		}
		if err != nil {
			return false, err
		}
	}
	return true, nil
}

// healthFromSnapshot reconstructs approximate health accounting for a
// chunk restored from the checkpoint: measured and failed records are
// exact (they are in the snapshot); targets absent from the snapshot were
// unregistered or unknown-TLD at scan time and are folded into
// Unregistered, since the checkpoint does not persist that distinction.
// The reconstruction always balances: Targets = Measured + Unregistered +
// skipped + failed.
func healthFromSnapshot(day simtime.Day, chunkTargets int, snap *dataset.Snapshot) *SweepHealth {
	h := &SweepHealth{Day: day, Targets: chunkTargets, ByClass: make(map[FailClass]int)}
	h.Measured = snap.MeasuredCount()
	for i := range snap.Records {
		r := &snap.Records[i]
		if !r.Failed {
			continue
		}
		class := FailClass(r.FailReason)
		if class == "" {
			class = FailTransport
		}
		h.Failures = append(h.Failures, Failure{
			Target: Target{Domain: r.Domain, TLD: r.TLD},
			Stage:  "checkpoint", Class: class,
		})
		h.ByClass[class]++
	}
	if absent := chunkTargets - len(snap.Records); absent > 0 {
		h.Unregistered = absent
	}
	return h
}
