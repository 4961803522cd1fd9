package scan

import (
	"context"
	"errors"
	"fmt"
	"io/fs"
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
// It is called once per day, resumed or not: the cursor's length fixes the
// day's shard spans and so which chunk each file holds. The costly work
// belongs in the prepare hook, which only a chunk being scanned pays for.
type StreamDaySetup func(ctx context.Context, day simtime.Day) (*Scanner, TargetSource, ChunkPrepare, error)

// DayEnv is one day's scan environment as a StreamDaySetup yields it; it
// also holds the chunk loop's reusable target buffer.
type DayEnv struct {
	Scanner *Scanner
	Source  TargetSource
	Prepare ChunkPrepare
	buf     []Target
}

// ChunkStore is one shard's durable chunks as the chunk loop uses them: the
// one resume rule of both sweep topologies, in which the directory is the
// ledger. The loop reads each chunk's file by its name; a file that
// verifies by its own checks is reused, a missing one is scanned, a damaged
// one is warned of and scanned again, and every fresh chunk is written
// before the loop moves on. Each chunk reused or written is entered in
// Progress.
type ChunkStore struct {
	// Dir holds the chunk files; nil runs the loop without durability.
	Dir *checkpoint.Store
	// Shard is the shard index the chunk files are named for.
	Shard int
	// Owner tags a distributed worker's chunk files; empty for the
	// single-process sweep.
	Owner string
	// Worker names the distributed worker in the loop's log records; empty
	// for the single-process sweep.
	Worker string
	// Progress is the shard's geometry and the chunks entered so far.
	Progress *checkpoint.ChunkProgress
}

// load returns chunk c's durable snapshot, entered in Progress, or nil when
// there is none to reuse: no directory, no file, or a damaged one.
func (s *ChunkStore) load(day simtime.Day, c int) *dataset.Snapshot {
	if s.Dir == nil {
		return nil
	}
	snap, meta, err := s.Dir.ReadChunk(day, s.Shard, c, s.Owner)
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	attrs := []any{"day", day, "shard", s.Shard, "chunk", c, "chunks", s.Progress.Chunks}
	if s.Worker != "" {
		attrs = append(attrs, "worker", s.Worker)
	}
	if err != nil {
		slog.Warn("resume: chunk damaged, re-scanning", append(attrs, "err", err)...)
		return nil
	}
	s.Progress.Done[c] = meta
	slog.Warn("resume: chunk verified from checkpoint", append(attrs, "records", meta.Records)...)
	return snap
}

// flush makes chunk c's freshly scanned snapshot durable and enters it.
func (s *ChunkStore) flush(day simtime.Day, c int, snap *dataset.Snapshot) error {
	if s.Dir == nil {
		return nil
	}
	meta, err := s.Dir.WriteChunk(day, s.Shard, c, s.Owner, snap)
	if err != nil {
		return fmt.Errorf("flushing chunk %d: %w", c, err)
	}
	s.Progress.Done[c] = meta
	return nil
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
// flight, and nothing is left to flush on the way out. A re-run with the
// same configuration resumes there through the chunk loop's one rule:
// chunk files that verify are reused, missing or damaged ones are scanned
// (partial chunks are never written), which keeps the final archive
// byte-identical to an uninterrupted run. The directory's only other file
// is its header (checkpoint.Header), written once, before the first chunk.
type ResumableSweep struct {
	// Checkpoint holds the chunk files and the header; nil runs the sweep
	// without durability (output bytes are identical).
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
	// resuming under a different chunk size is refused by the header
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
// by chunk, every completed chunk is durably written before the next
// starts, and each day's records accumulate in a spill writer (RAM up to
// Spill.MemBudget, sorted run files beyond) handed to sink when the day
// completes. On context cancellation it returns the context's error, the
// interrupted chunk dropped; re-running with the same configuration picks
// up from the chunk files. The day sections are byte-identical to one
// ScanDay over the day's targets, canonicalized and written in RAM.
func (rs *ResumableSweep) RunStream(ctx context.Context, days []simtime.Day, sink DaySink) error {
	if rs.StreamSetup == nil {
		return fmt.Errorf("scan: RunStream requires a StreamSetup function")
	}
	hdr, release, err := rs.lockAndLoad()
	if err != nil {
		return err
	}
	defer release()
	for _, day := range days {
		if err := rs.runDay(ctx, day, &hdr, sink); err != nil {
			return err
		}
	}
	return nil
}

// lockAndLoad acquires the checkpoint's single-writer lock and loads the
// directory's header, refusing one written for a different sweep or cut
// into other shards or chunks — all before any setup runs. A directory
// that no sweep owns yet is cleared of whatever chunk files an earlier
// sweep left, which belong to no header. With no checkpoint configured it
// returns a no-op release.
func (rs *ResumableSweep) lockAndLoad() (*checkpoint.Header, func() error, error) {
	if rs.Checkpoint == nil {
		return nil, func() error { return nil }, nil
	}
	// The sweep is the sole writer of the directory for its whole run: a
	// second process resuming it must fail here, not write beside us.
	release, err := rs.Checkpoint.AcquireLock("resumable-sweep", rs.Fingerprint)
	if err != nil {
		return nil, nil, err
	}
	hdr, err := rs.Checkpoint.Load()
	if err == nil && hdr == nil && rs.Checkpoint.Ledger() == "" {
		err = rs.Checkpoint.Clear()
	}
	if err == nil && hdr != nil {
		err = rs.matches(hdr, hdr.Targets)
	}
	if err != nil {
		release()
		return nil, nil, err
	}
	return hdr, release, nil
}

// matches refuses a header written for another sweep, or for days cut
// otherwise than this run cuts days of targets targets.
func (rs *ResumableSweep) matches(hdr *checkpoint.Header, targets int) error {
	if hdr.Fingerprint != rs.Fingerprint {
		return fmt.Errorf("scan: checkpoint in %s belongs to a different sweep (fingerprint %q, this run %q)",
			rs.Checkpoint.Dir(), hdr.Fingerprint, rs.Fingerprint)
	}
	if hdr.Shards != rs.shards() || hdr.Chunk != ChunkSize(rs.Chunk) || hdr.Targets != targets {
		return fmt.Errorf("scan: checkpoint in %s was chunked as %d targets a day in %d shards, chunks of %d; this run wants %d in %d shards, chunks of %d",
			rs.Checkpoint.Dir(), hdr.Targets, hdr.Shards, hdr.Chunk, targets, rs.shards(), ChunkSize(rs.Chunk))
	}
	return nil
}

// runDay completes one day: every shard's chunks are walked, the verified
// ones reused and the rest scanned. The sweep's first day writes the
// header, before its first chunk; every later one, and every day of a
// resume, must cut its targets as the header says.
func (rs *ResumableSweep) runDay(ctx context.Context, day simtime.Day, hdr **checkpoint.Header, sink DaySink) (err error) {
	env := &DayEnv{}
	if env.Scanner, env.Source, env.Prepare, err = rs.StreamSetup(ctx, day); err != nil {
		return err
	}
	targets := env.Source.Len()
	switch {
	case rs.Checkpoint == nil:
	case *hdr == nil:
		*hdr = &checkpoint.Header{Fingerprint: rs.Fingerprint, Shards: rs.shards(), Chunk: ChunkSize(rs.Chunk), Targets: targets}
		if err := rs.Checkpoint.Save(*hdr); err != nil {
			return err
		}
	default:
		// The chunk files were cut from spans of another target count:
		// refuse, like a fingerprint mismatch, rather than fabricate a day
		// out of incompatible pieces.
		if err := rs.matches(*hdr, targets); err != nil {
			return fmt.Errorf("day %s: %w", day, err)
		}
	}

	sw := dataset.NewSpillWriter(day, rs.Spill)
	defer func() {
		if cerr := sw.Close(); cerr != nil && err == nil {
			err = cerr
		}
	}()
	// An interrupted day still hands the caller the ledger of what it reached.
	dayHealth := &SweepHealth{Day: day, ByClass: make(map[FailClass]int)}
	for k, span := range ShardBounds(targets, rs.shards()) {
		store := &ChunkStore{Dir: rs.Checkpoint, Shard: k, Progress: checkpoint.NewChunkProgress(ChunkSize(rs.Chunk), span.Len())}
		var h *SweepHealth
		h, err = env.ScanSpan(ctx, day, span, store, sw.Append)
		dayHealth.Merge(h)
		if err != nil {
			break
		}
	}
	if rs.OnDayHealth != nil {
		rs.OnDayHealth(day, dayHealth)
	}
	if err != nil || sink == nil {
		return err
	}
	return sink(day, sw)
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
