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

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
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

// sweepSetup returns a StreamDaySetup over the fixed in-memory world: the
// target list behind a cursor, no per-chunk prepare (the in-memory world
// serves every domain already), optionally wrapping the exchanger.
func sweepSetup(t *testing.T, eco *ecosystem.Ecosystem, targets []scan.Target, wrap func(exchange.Exchanger) exchange.Exchanger) scan.StreamDaySetup {
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		var ex exchange.Exchanger = eco.Net
		if wrap != nil {
			ex = wrap(ex)
		}
		s, err := scan.New(scan.Config{
			Exchange: ex,
			TLDServers: map[string]string{
				"com": dnstest.TLDServerAddr("com"),
				"nl":  dnstest.TLDServerAddr("nl"),
			},
			Workers: 3,
			Clock:   eco.Clock.Day,
		})
		if err != nil {
			t.Fatal(err)
		}
		return s, scan.SliceTargets(targets), nil, nil
	}
}

// oracleArchive is the byte-identity oracle: every day scanned in one
// ScanDay over all the targets, canonicalized and written in RAM. It also
// returns each day's health for ledger comparisons.
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
	var buf bytes.Buffer
	for _, day := range store.Days() {
		if err := store.Get(day).WriteArchiveSection(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes(), healths
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
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
			cp, err := checkpoint.Open(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
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
		StreamSetup: sweepSetup(t, eco, targets, func(ex exchange.Exchanger) exchange.Exchanger {
			counter.inner = ex
			return counter
		})}
	if err := probe.RunStream(context.Background(), days[:1], nil); err != nil {
		t.Fatal(err)
	}
	killAt := max(counter.n.Load()*6/10, 2)

	cp, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAtExchanger{cancel: cancel, at: killAt}
	interrupted := &scan.ResumableSweep{
		Checkpoint:  cp,
		Fingerprint: "drill-v1",
		Shards:      3,
		Chunk:       chunk,
		StreamSetup: sweepSetup(t, eco, targets, func(ex exchange.Exchanger) exchange.Exchanger {
			killer.inner = ex
			return killer
		}),
	}
	if err := interrupted.RunStream(ctx, days, nil); err == nil {
		t.Fatal("interrupted run reported success")
	}
	if cp.Ledger() != checkpoint.SweepLedger {
		t.Fatal("no checkpoint persisted by the interrupted run")
	}
	st, err := cp.Load()
	if err != nil {
		t.Fatal(err)
	}
	doneChunks := 0
	for _, dp := range st.Days {
		for _, cpr := range dp.Partial {
			doneChunks += len(cpr.Done)
		}
	}
	if doneChunks == 0 {
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
	cp, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	first := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "cfg-a", Shards: 2,
		StreamSetup: sweepSetup(t, eco, targets, nil)}
	if err := first.RunStream(context.Background(), days, nil); err != nil {
		t.Fatal(err)
	}
	other := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "cfg-b", Shards: 2,
		StreamSetup: sweepSetup(t, eco, targets, nil)}
	if err := other.RunStream(context.Background(), days, nil); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Errorf("foreign checkpoint accepted: %v", err)
	}
}

// TestResumableSweepDamagedShardRescanned bit-flips one chunk file of a
// completed day at rest: the re-run must re-scan exactly that chunk,
// verify every other one from its checksum, and reproduce the archive.
func TestResumableSweepDamagedShardRescanned(t *testing.T) {
	eco, targets := buildWorld(t)
	days := []simtime.Day{eco.Clock.Day()}
	dir := t.TempDir()
	cp, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The prepare hook runs once per chunk the loop actually scans.
	var scans atomic.Int64
	setup := sweepSetup(t, eco, targets, nil)
	rs := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: "cfg", Shards: 2, Chunk: 2,
		StreamSetup: func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
			s, src, _, err := setup(ctx, day)
			return s, src, func(context.Context, int, int) error { scans.Add(1); return nil }, err
		}}
	want := archiveViaStream(t, rs, days)
	if oracle, _ := oracleArchive(t, eco, targets, days); !bytes.Equal(oracle, want) {
		t.Fatal("clean checkpointed archive differs from the oracle")
	}
	totalChunks := scans.Swap(0)

	matches, err := filepath.Glob(filepath.Join(dir, "day-*-shard-000-chunk-00001.tsv"))
	if err != nil || len(matches) != 1 {
		t.Fatalf("chunk files: %v, %v", matches, err)
	}
	data, err := os.ReadFile(matches[0])
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(matches[0], data, 0o644); err != nil {
		t.Fatal(err)
	}

	logged := logtest.Capture(t)
	if got := archiveViaStream(t, rs, days); !bytes.Equal(want, got) {
		t.Error("re-scan after chunk damage diverges from original archive")
	}
	if n := scans.Load(); n != 1 {
		t.Errorf("re-scanned %d of %d chunks after damaging one", n, totalChunks)
	}
	damage := logged.Records("resume: chunk failed verification")
	if len(damage) != 1 || damage[0].Level != slog.LevelWarn || damage[0].Attrs["day"] != days[0].String() ||
		damage[0].Attrs["shard"] != "0" || damage[0].Attrs["chunk"] != "1" {
		t.Errorf("damage not reported as one warning locating day %s shard 0 chunk 1: %v", days[0], logged.Records(""))
	}
}

func TestRunStreamChunkGeometryGuard(t *testing.T) {
	eco, targets := buildWorld(t)
	day := eco.Clock.Day()
	cp, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}

	// Interrupt almost immediately so the day stays incomplete but has
	// recorded chunk geometry.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	killer := &cancelAtExchanger{cancel: cancel, at: 25}
	first := &scan.ResumableSweep{
		Checkpoint: cp, Fingerprint: "geom", Shards: 2, Chunk: 2,
		StreamSetup: sweepSetup(t, eco, targets, func(ex exchange.Exchanger) exchange.Exchanger {
			killer.inner = ex
			return killer
		}),
	}
	if err := first.RunStream(ctx, []simtime.Day{day}, nil); err == nil {
		t.Fatal("interrupted run reported success")
	}
	st, err := cp.Load()
	if err != nil {
		t.Fatal(err)
	}
	hasGeometry := false
	for _, dp := range st.Days {
		if len(dp.Partial) > 0 {
			hasGeometry = true
		}
	}
	if !hasGeometry {
		t.Skip("kill landed before any shard recorded chunk geometry")
	}

	// Resuming with a different chunk size must be refused.
	second := &scan.ResumableSweep{
		Checkpoint: cp, Fingerprint: "geom", Shards: 2, Chunk: 5,
		StreamSetup: sweepSetup(t, eco, targets, nil),
	}
	err = second.RunStream(context.Background(), []simtime.Day{day}, nil)
	if err == nil || !strings.Contains(err.Error(), "chunked as") {
		t.Errorf("chunk-size change accepted on resume: %v", err)
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
