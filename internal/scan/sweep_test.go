package scan_test

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/ecotest"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/logtest"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// cancelAtExchanger cancels the context when the Nth exchange begins, then
// lets the exchange itself fail on the dead context — a deterministic kill
// point mid-sweep.
type cancelAtExchanger struct {
	inner  exchange.Exchanger
	cancel context.CancelFunc
	at     int64
	n      atomic.Int64
}

func (e *cancelAtExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	if e.n.Add(1) == e.at {
		e.cancel()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return e.inner.Exchange(ctx, server, q)
}

// wrap is a sweepSetup wrap that routes the sweep's exchanges through e.
func (e *cancelAtExchanger) wrap(ex exchange.Exchanger) exchange.Exchanger {
	e.inner = ex
	return e
}

// refused requires rs to refuse its checkpoint with an error naming want.
func refused(t *testing.T, rs *scan.ResumableSweep, days []simtime.Day, want string) {
	t.Helper()
	if err := rs.RunStream(context.Background(), days, nil); err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("sweep %q over a checkpoint of another: %v, want an error naming %q", rs.Fingerprint, err, want)
	}
}

// openCheckpoint opens a checkpoint store in a fresh directory.
func openCheckpoint(t *testing.T) *checkpoint.Store {
	t.Helper()
	cp, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return cp
}

// sweepSetup returns a StreamDaySetup over the fixed in-memory world: the
// target list behind a cursor, no per-chunk prepare (the in-memory world
// serves every domain already), optionally wrapping the exchanger.
func sweepSetup(t *testing.T, eco *ecosystem.Ecosystem, targets []scan.Target, wrap func(exchange.Exchanger) exchange.Exchanger) scan.StreamDaySetup {
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		cfg := ecotest.ScanConfig(eco, 3)
		if wrap != nil {
			cfg.Exchange = wrap(cfg.Exchange)
		}
		s, err := scan.New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return s, ecotest.Targets(targets), nil, nil
	}
}

// oracleArchive is the byte-identity oracle: every day scanned in one
// ScanDay over all the targets, canonicalized and written in RAM, then
// through an ArchiveWriter, which keys the days as it keys a sweep's. It
// also returns each day's health for ledger comparisons.
func oracleArchive(t *testing.T, eco *ecosystem.Ecosystem, targets []scan.Target, days []simtime.Day) ([]byte, []*scan.SweepHealth) {
	t.Helper()
	store := dataset.NewStore()
	var healths []*scan.SweepHealth
	for _, day := range days {
		snap, h, err := newScanner(t, eco, 3).ScanDay(context.Background(), day, targets)
		if err != nil {
			t.Fatal(err)
		}
		snap.Canonicalize()
		store.Add(snap)
		healths = append(healths, h)
	}
	path := filepath.Join(t.TempDir(), "oracle.tsv")
	aw, err := dataset.NewArchiveWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range store.Days() {
		sw := dataset.NewSpillWriter(day, dataset.SpillOptions{Dir: t.TempDir()})
		if err := sw.Append(store.Get(day).Records...); err != nil {
			t.Fatal(err)
		}
		if err := aw.Section(sw); err != nil {
			t.Fatal(err)
		}
		sw.Close()
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return archivetest.Read(t, path), healths
}

// archiveViaStream runs a sweep into an on-disk archive and returns the
// file bytes.
func archiveViaStream(t *testing.T, rs *scan.ResumableSweep, days []simtime.Day) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "stream.tsv")
	aw, err := dataset.NewArchiveWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.RunStream(context.Background(), days, func(day simtime.Day, sw *dataset.SpillWriter) error {
		return aw.Section(sw)
	}); err != nil {
		aw.Abort()
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return archivetest.Read(t, path)
}

// healthKey reduces a SweepHealth to an order-insensitive canonical form.
func healthKey(h *scan.SweepHealth) string {
	classes := make([]string, 0, len(h.ByClass))
	for c, n := range h.ByClass {
		if n != 0 {
			classes = append(classes, fmt.Sprintf("%s=%d", c, n))
		}
	}
	sort.Strings(classes)
	fails := make([]string, 0, len(h.Failures))
	for _, f := range h.Failures {
		fails = append(fails, f.Target.Domain+"/"+f.Stage+"/"+string(f.Class))
	}
	sort.Strings(fails)
	skipped := append([]string(nil), h.SkippedUnknownTLD...)
	sort.Strings(skipped)
	return fmt.Sprintf("t=%d m=%d u=%d by[%s] fail[%s] skip[%s] retries=%d",
		h.Targets, h.Measured, h.Unregistered, strings.Join(classes, ","),
		strings.Join(fails, ","), strings.Join(skipped, ","), h.Exchange.Retry.Retries)
}

// chunkHealths scans the targets in chunks of the given size, as the chunk
// loop does, and returns each chunk's health report.
func chunkHealths(t *testing.T, eco *ecosystem.Ecosystem, targets []scan.Target, chunk int) []*scan.SweepHealth {
	t.Helper()
	s := newScanner(t, eco, 3)
	var parts []*scan.SweepHealth
	for lo := 0; lo < len(targets); lo += chunk {
		_, h, err := s.ScanDay(context.Background(), eco.Clock.Day(), targets[lo:min(lo+chunk, len(targets))])
		if err != nil {
			t.Fatalf("chunk=%d: %v", chunk, err)
		}
		parts = append(parts, h)
	}
	return parts
}

// TestScanDayStreamMatchesWholeDay checks the ledger side of the chunking
// contract: a day swept chunk by chunk reports the same health as one
// ScanDay over the whole day, at every chunk size and shard count.
func TestScanDayStreamMatchesWholeDay(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day()}
	_, want := oracleArchive(t, eco, targets, days)

	for _, shards := range []int{1, 3} {
		for _, chunk := range []int{1, 2, 3, len(targets), len(targets) + 50} {
			var got *scan.SweepHealth
			rs := &scan.ResumableSweep{
				Shards: shards, Chunk: chunk,
				StreamSetup: sweepSetup(t, eco, targets, nil),
				OnDayHealth: func(_ simtime.Day, h *scan.SweepHealth) { got = h },
			}
			if err := rs.RunStream(context.Background(), days, nil); err != nil {
				t.Fatalf("shards=%d chunk=%d: %v", shards, chunk, err)
			}
			if !got.Balanced() {
				t.Errorf("shards=%d chunk=%d: aggregate health unbalanced: %s", shards, chunk, got)
			}
			if gk, wk := healthKey(got), healthKey(want[0]); gk != wk {
				t.Errorf("shards=%d chunk=%d: aggregate health differs\n got %s\nwant %s", shards, chunk, gk, wk)
			}
		}
	}
}

// TestStreamHealthMergeProperty is the ledger property test: for random
// chunk sizes (including 1 and larger than the target count), every chunk
// report balances, and merging them in any order yields the same balanced
// aggregate.
func TestStreamHealthMergeProperty(t *testing.T) {
	eco, targets := buildWorld(t)
	day := eco.Clock.Day()
	rng := rand.New(rand.NewSource(7))

	var wantKey string
	for trial := 0; trial < 8; trial++ {
		chunk := 1 + rng.Intn(len(targets)+3)
		if trial == 0 {
			chunk = 1
		}
		if trial == 1 {
			chunk = len(targets) + 17
		}
		parts := chunkHealths(t, eco, targets, chunk)
		for c, h := range parts {
			if !h.Balanced() {
				t.Errorf("chunk=%d: chunk %d health unbalanced: %s", chunk, c, h)
			}
		}

		// Merge the chunk reports in a few random orders; every order must
		// produce the same balanced aggregate.
		for perm := 0; perm < 4; perm++ {
			order := rng.Perm(len(parts))
			agg := &scan.SweepHealth{Day: day}
			for _, i := range order {
				agg.Merge(parts[i])
			}
			if !agg.Balanced() {
				t.Fatalf("chunk=%d perm=%v: merged health unbalanced: %s", chunk, order, agg)
			}
			if agg.Targets != len(targets) {
				t.Fatalf("chunk=%d: merged targets %d, want %d", chunk, agg.Targets, len(targets))
			}
			key := healthKey(agg)
			if wantKey == "" {
				wantKey = key
			}
			if key != wantKey {
				t.Fatalf("chunk=%d perm=%v: aggregate differs\n got %s\nwant %s", chunk, order, key, wantKey)
			}
		}
	}
}

func TestRunStreamByteIdenticalToScanDay(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day(), eco.Clock.Day() + 1}
	want, _ := oracleArchive(t, eco, targets, days)

	// Chunk sizes 1, 3, 7 cut shards at every alignment; the last is larger
	// than any shard, so each shard is scanned as one chunk.
	for _, chunk := range []int{1, 3, 7, len(targets) + 9} {
		for _, budget := range []int64{1, 1 << 20} {
			cp := openCheckpoint(t)
			var healths []*scan.SweepHealth
			rs := &scan.ResumableSweep{
				Checkpoint:  cp,
				Fingerprint: fmt.Sprintf("stream chunk=%d", chunk),
				Shards:      3,
				Chunk:       chunk,
				Spill:       dataset.SpillOptions{Dir: t.TempDir(), MemBudget: budget},
				StreamSetup: sweepSetup(t, eco, targets, nil),
				OnDayHealth: func(d simtime.Day, h *scan.SweepHealth) { healths = append(healths, h) },
			}
			got := archiveViaStream(t, rs, days)
			if !bytes.Equal(want, got) {
				t.Errorf("chunk=%d budget=%d: sweep archive differs from the in-RAM ScanDay archive", chunk, budget)
			}
			if len(healths) != len(days) {
				t.Fatalf("chunk=%d: %d day healths, want %d", chunk, len(healths), len(days))
			}
			for _, h := range healths {
				if !h.Balanced() || h.Targets != len(targets) {
					t.Errorf("chunk=%d: day health wrong: %s", chunk, h)
				}
			}
		}
	}
}

// killResume interrupts a checkpointed sweep about 60% into its first day,
// resumes it, and checks the resumed archive — and a further
// checksum-verified reload — against the uninterrupted oracle.
func killResume(t *testing.T, chunk int) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day(), eco.Clock.Day() + 1}
	want, _ := oracleArchive(t, eco, targets, days)

	// Count one clean day's exchanges to place the kill.
	counter := &cancelAtExchanger{at: -1}
	probe := &scan.ResumableSweep{Shards: 3, Chunk: chunk,
		StreamSetup: sweepSetup(t, eco, targets, counter.wrap)}
	if err := probe.RunStream(context.Background(), days[:1], nil); err != nil {
		t.Fatal(err)
	}
	killAt := max(counter.n.Load()*6/10, 2)

	cp := openCheckpoint(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAtExchanger{cancel: cancel, at: killAt}
	interrupted := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: "drill-v1",
		Shards:      3,
		Chunk:       chunk,
		StreamSetup: sweepSetup(t, eco, targets, killer.wrap),
	}
	if err := interrupted.RunStream(ctx, days, nil); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if cp.Ledger() != checkpoint.SweepLedger {
		t.Fatal("no checkpoint persisted by the interrupted run")
	}
	doneChunks, err := filepath.Glob(filepath.Join(cp.Dir(), "day-*-chunk-*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(doneChunks) == 0 {
		t.Fatal("kill landed before any chunk completed; cannot exercise chunk-level resume")
	}

	// Resume with a fresh context and no fault: must complete and produce
	// a byte-identical archive.
	resumed := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: "drill-v1",
		Shards:      3,
		Chunk:       chunk,
		StreamSetup: sweepSetup(t, eco, targets, nil),
	}
	logged := logtest.Capture(t)
	got := archiveViaStream(t, resumed, days)
	if !bytes.Equal(want, got) {
		t.Errorf("resumed archive differs from uninterrupted run:\n--- want\n%s\n--- got\n%s", want, got)
	}
	if len(logged.Records("resume: chunk verified from checkpoint")) == 0 {
		t.Errorf("no chunk-level verification records in %v", logged.Records(""))
	}

	// A full re-run verifies every chunk from checksum without scanning.
	if again := archiveViaStream(t, resumed, days); !bytes.Equal(want, again) {
		t.Error("checksum-verified reload diverges from the scan")
	}
}

// Kill/resume with several chunks per shard: the resume re-enters the
// interrupted shard at its first missing chunk.
func TestRunStreamKillResume(t *testing.T) { killResume(t, 2) }

// Kill/resume at the default chunk size, far above the shard size here:
// every shard is one chunk, so the resume re-does the interrupted shard.
func TestResumableSweepKillResume(t *testing.T) { killResume(t, 0) }

func TestResumableSweepFingerprintGuard(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day()}
	cp := openCheckpoint(t)
	first := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "cfg-a", Shards: 2,
		StreamSetup: sweepSetup(t, eco, targets, nil)}
	if err := first.RunStream(context.Background(), days, nil); err != nil {
		t.Fatal(err)
	}
	other := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "cfg-b", Shards: 2,
		StreamSetup: sweepSetup(t, eco, targets, nil)}
	refused(t, other, days, "different sweep")
}

// TestResumableSweepDamagedShardRescanned bit-flips one chunk file of a
// completed day at rest: the re-run must re-scan exactly that chunk,
// verify every other one from its checksum, and reproduce the archive.
func TestResumableSweepDamagedShardRescanned(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day()}
	cp := openCheckpoint(t)
	var scans atomic.Int64
	rs := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "cfg", Shards: 2, Chunk: 2,
		StreamSetup: countingSetup(t, eco, targets, &scans, nil)}
	want := archiveViaStream(t, rs, days)
	if oracle, _ := oracleArchive(t, eco, targets, days); !bytes.Equal(oracle, want) {
		t.Fatal("clean checkpointed archive differs from the oracle")
	}
	totalChunks := scans.Swap(0)

	matches, err := filepath.Glob(filepath.Join(cp.Dir(), "day-*-shard-000-chunk-00001.tsv"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("chunk files: %v, %v", matches, err)
	}
	data := archivetest.Read(t, matches[0])
	data[len(data)/2] ^= 0x01
	archivetest.Write(t, matches[0], data)

	logged := logtest.Capture(t)
	if got := archiveViaStream(t, rs, days); !bytes.Equal(want, got) {
		t.Error("re-scan after chunk damage diverges from original archive")
	}
	if n := scans.Load(); n != 1 {
		t.Errorf("re-scanned %d of %d chunks after damaging one", n, totalChunks)
	}
	damage := logged.Records("resume: chunk damaged, re-scanning")
	if len(damage) != 1 || damage[0].Level != slog.LevelWarn || damage[0].Attrs["day"] != days[0].String() ||
		damage[0].Attrs["shard"] != "0" || damage[0].Attrs["chunk"] != "1" {
		t.Errorf("damage not reported as one warning locating day %s shard 0 chunk 1: %v", days[0], logged.Records(""))
	}
}

func TestRunStreamChunkGeometryGuard(t *testing.T) {
	eco, targets := buildWorld(t)
	day := eco.Clock.Day()
	cp := openCheckpoint(t)

	// Interrupt almost immediately so the day stays incomplete; its header
	// records the chunk geometry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAtExchanger{cancel: cancel, at: 25}
	first := &scan.ResumableSweep{
		Checkpoint: cp, Fingerprint: "geom", Shards: 2, Chunk: 2,
		StreamSetup: sweepSetup(t, eco, targets, killer.wrap),
	}
	if err := first.RunStream(ctx, []simtime.Day{day}, nil); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if h, err := cp.Load(); err != nil || h == nil || h.Chunk != 2 {
		t.Fatalf("the interrupted run left header %+v (%v), want one of chunk size 2", h, err)
	}

	// Resuming with a different chunk size must be refused.
	second := &scan.ResumableSweep{
		Checkpoint: cp, Fingerprint: "geom", Shards: 2, Chunk: 5,
		StreamSetup: sweepSetup(t, eco, targets, nil),
	}
	refused(t, second, []simtime.Day{day}, "chunked as")
}

// countingSetup is sweepSetup with a prepare hook that counts the chunks
// the loop actually scans and runs each chunk's before hook first.
func countingSetup(t *testing.T, eco *ecosystem.Ecosystem, targets []scan.Target, scans *atomic.Int64, before func()) scan.StreamDaySetup {
	setup := sweepSetup(t, eco, targets, nil)
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		s, src, _, err := setup(ctx, day)
		return s, src, func(context.Context, int, int) error {
			if before != nil {
				before()
			}
			scans.Add(1)
			return nil
		}, err
	}
}

// TestCheckpointHeaderWrittenOnce: checkpoint.json is written before the
// first chunk and never again — its bytes, and the file itself, once the
// first chunk is durable are what a finished multi-day sweep leaves.
func TestCheckpointHeaderWrittenOnce(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day(), eco.Clock.Day() + 1, eco.Clock.Day() + 2}
	cp := openCheckpoint(t)
	path := filepath.Join(cp.Dir(), checkpoint.SweepLedger)
	var scans atomic.Int64
	var first []byte
	var firstInfo os.FileInfo
	// The second prepare comes once the first chunk is written.
	before := func() {
		if scans.Load() == 1 {
			var err error
			if first, err = os.ReadFile(path); err == nil {
				firstInfo, err = os.Stat(path)
			}
			if err != nil {
				t.Error(err)
			}
		}
	}
	rs := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "once", Shards: 2, Chunk: 2,
		StreamSetup: countingSetup(t, eco, targets, &scans, before)}
	archiveViaStream(t, rs, days)
	if first == nil {
		t.Fatal("no header once the first chunk was written")
	}
	last := archivetest.Read(t, path)
	if !bytes.Equal(first, last) {
		t.Errorf("header after the first chunk\n%s\ndiffers from the finished sweep's\n%s", first, last)
	}
	if lastInfo, err := os.Stat(path); err != nil || !os.SameFile(firstInfo, lastInfo) {
		t.Errorf("the header was replaced after the first chunk (%v)", err)
	}
	if n := scans.Load(); n < int64(3*len(days)) {
		t.Fatalf("only %d chunks scanned over %d days", n, len(days))
	}
}

// TestResumeOfOtherTargetCountRefused: a resume whose days hold another
// target count — so every shard another span — is refused before it
// reuses a single chunk file cut from the old spans.
func TestResumeOfOtherTargetCountRefused(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day()}
	cp := openCheckpoint(t)
	var scans atomic.Int64
	first := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "targets", Shards: 2, Chunk: 2,
		StreamSetup: countingSetup(t, eco, targets[:len(targets)-3], &scans, nil)}
	archiveViaStream(t, first, days)

	logged := logtest.Capture(t)
	scans.Store(0)
	second := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "targets", Shards: 2, Chunk: 2,
		StreamSetup: countingSetup(t, eco, targets, &scans, nil)}
	refused(t, second, days, "chunked as")
	if reused := logged.Records("resume: chunk verified from checkpoint"); len(reused) != 0 || scans.Load() != 0 {
		t.Errorf("the refused resume reused %d chunks and scanned %d", len(reused), scans.Load())
	}
}

// TestFreshSweepIgnoresStaleChunks: chunk files in a directory that no
// header claims belong to no sweep — a fresh sweep scans every chunk
// rather than trust one.
func TestFreshSweepIgnoresStaleChunks(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day()}
	cp := openCheckpoint(t)
	var scans atomic.Int64
	rs := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "stale", Shards: 2, Chunk: 2,
		StreamSetup: countingSetup(t, eco, targets, &scans, nil)}
	want := archiveViaStream(t, rs, days)
	total := scans.Swap(0)
	if err := os.Remove(filepath.Join(cp.Dir(), checkpoint.SweepLedger)); err != nil {
		t.Fatal(err)
	}
	logged := logtest.Capture(t)
	if got := archiveViaStream(t, rs, days); !bytes.Equal(got, want) {
		t.Error("the fresh sweep's archive differs")
	}
	if reused := logged.Records("resume: chunk verified from checkpoint"); len(reused) != 0 || scans.Load() != total {
		t.Errorf("a fresh sweep reused %d stale chunks and scanned %d of %d", len(reused), scans.Load(), total)
	}
}

// TestShardBoundsProperties checks ShardBounds directly: the spans are
// contiguous, cover [0, n), differ in size by at most one (larger first),
// and a shard count above n clamps to n.
func TestShardBoundsProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 500; trial++ {
		n := rng.Intn(50)
		shards := rng.Intn(12) - 1
		spans := scan.ShardBounds(n, shards)

		wantLen := max(shards, 1)
		if n > 0 {
			wantLen = min(wantLen, n)
		}
		if len(spans) != wantLen {
			t.Fatalf("n=%d shards=%d: %d spans, want %d", n, shards, len(spans), wantLen)
		}
		off := 0
		for i, sp := range spans {
			if sp.Lo != off || sp.Hi < sp.Lo {
				t.Fatalf("n=%d shards=%d: span %d = %+v does not continue at %d", n, shards, i, sp, off)
			}
			if i > 0 && (sp.Len() > spans[i-1].Len() || spans[0].Len()-sp.Len() > 1) {
				t.Fatalf("n=%d shards=%d: unbalanced spans %+v", n, shards, spans)
			}
			off = sp.Hi
		}
		if off != n {
			t.Fatalf("n=%d shards=%d: spans end at %d", n, shards, off)
		}
	}
}
