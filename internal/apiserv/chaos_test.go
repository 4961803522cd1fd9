package apiserv

// The chaos harness, in-process edition: the same failures the CI smoke
// job inflicts on the real binary — kill mid-ingest, corrupt the tail,
// rotate the archive, flood the query plane, poison a handler — driven
// deterministically through resumeOnce/pollOnce so every commit boundary
// is exercised, not just the ones a racing SIGKILL happens to hit.

import (
	"bytes"
	"context"
	"errors"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/logtest"
	"securepki.org/registrarsec/internal/simtime"
)

// archiveBytes is the archive of mkSnap(day, n) for each of days.
func archiveBytes(t testing.TB, days []simtime.Day, n int) []byte {
	var snaps []*dataset.Snapshot
	for _, d := range days {
		snaps = append(snaps, mkSnap(d, n))
	}
	return archivetest.Archive(t, snaps...)
}

// runToEnd drives a server's ingest synchronously over the current
// archive state: resume from disk, then poll once.
func runToEnd(t testing.TB, s *Server) {
	t.Helper()
	if err := s.resumeOnce(); err != nil {
		t.Fatal(err)
	}
	if err := s.pollOnce(); err != nil {
		t.Fatal(err)
	}
}

// worldFile reads the committed world bytes.
func worldFile(t testing.TB, s *Server) []byte {
	t.Helper()
	return archivetest.Read(t, s.cfg.WorldPath)
}

// TestChaosResumeAtEveryCommitPoint is the crash-equivalence oracle at
// the daemon layer: for every commit boundary in the archive, a daemon
// killed right after that commit and restarted over the grown archive
// must converge to a world file byte-identical to a clean single-pass
// daemon's, and serve identical Table 1 JSON.
func TestChaosResumeAtEveryCommitPoint(t *testing.T) {
	days := []simtime.Day{50, 80, 110, 140, 170}
	full := archiveBytes(t, days, 80)

	// Clean single-pass reference.
	cleanDir := t.TempDir()
	clean := newTestServer(t, cleanDir)
	archivetest.Write(t, clean.cfg.ArchivePath, full)
	runToEnd(t, clean)
	wantWorld := worldFile(t, clean)
	wantTable1 := get(clean.Handler(), "/v1/table1").Body.String()

	// Every event End is a commit boundary a SIGKILL could leave behind.
	res, err := dataset.TailArchive(clean.cfg.ArchivePath, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != len(days) {
		t.Fatalf("%d events, want %d", len(res.Events), len(days))
	}
	cuts := []int64{0}
	for _, ev := range res.Events {
		cuts = append(cuts, ev.End)
	}

	for _, cut := range cuts {
		dir := t.TempDir()
		// Life before the crash: ingest the prefix and commit.
		first := newTestServer(t, dir)
		archivetest.Write(t, first.cfg.ArchivePath, full[:cut])
		runToEnd(t, first)
		// The crash: the first daemon is abandoned mid-flight, no shutdown,
		// no cleanup. The archive keeps growing while it is dead.
		archivetest.Write(t, first.cfg.ArchivePath, full)
		// The restart: a fresh process resumes from the committed world.
		second := newTestServer(t, dir)
		runToEnd(t, second)
		if got := worldFile(t, second); !bytes.Equal(got, wantWorld) {
			t.Fatalf("cut %d: resumed world differs from clean world (%d vs %d bytes)", cut, len(got), len(wantWorld))
		}
		if got := get(second.Handler(), "/v1/table1").Body.String(); got != wantTable1 {
			t.Fatalf("cut %d: resumed Table 1 differs from clean run", cut)
		}
	}
}

// keyedArchiveBytes is the archive an ArchiveWriter writes of mkSnap(day, n)
// for each of days: a key and sections keyed to it, a week at a time.
func keyedArchiveBytes(t testing.TB, days []simtime.Day, n int) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "keyed.tsv")
	aw, err := dataset.NewArchiveWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range days {
		sw := dataset.NewSpillWriter(d, dataset.SpillOptions{Dir: t.TempDir()})
		if err := sw.Append(mkSnap(d, n).Records...); err != nil {
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
	return archivetest.Read(t, path)
}

// TestChaosResumeInsideKeyedRun: a daemon stopped after k sections of an
// ArchiveWriter archive — a key, the sections keyed to it, a second key and
// one keyed to that — and restarted from its world's META cursor ends with
// the world of a clean single pass, for every k: a restart inside a keyed
// run reads its key back from the archive. Its Table 1 is the one the same
// days written as self-contained sections make.
func TestChaosResumeInsideKeyedRun(t *testing.T) {
	var days []simtime.Day
	for d := simtime.Day(50); d < 59; d++ {
		days = append(days, d)
	}
	full := keyedArchiveBytes(t, days, 80)
	if plain := archiveBytes(t, days, 80); len(full) >= len(plain) {
		t.Fatalf("the keyed archive (%d bytes) is no smaller than its days self-contained (%d)", len(full), len(plain))
	}

	clean := newTestServer(t, t.TempDir())
	archivetest.Write(t, clean.cfg.ArchivePath, full)
	runToEnd(t, clean)
	wantWorld := worldFile(t, clean)
	if st := decodeJSON[Status](t, get(clean.Handler(), "/v1/status")); st.Sections != len(days) || st.Quarantined != 0 {
		t.Fatalf("clean pass: %+v, want %d sections, none quarantined", st, len(days))
	}
	plain := newTestServer(t, t.TempDir())
	archivetest.Write(t, plain.cfg.ArchivePath, archiveBytes(t, days, 80))
	runToEnd(t, plain)
	if get(plain.Handler(), "/v1/table1").Body.String() != get(clean.Handler(), "/v1/table1").Body.String() {
		t.Fatal("the keyed archive folds to another Table 1 than its days self-contained")
	}

	res, err := dataset.TailArchive(clean.cfg.ArchivePath, 0)
	if err != nil {
		t.Fatal(err)
	}
	for k, ev := range res.Events {
		dir := t.TempDir()
		first := newTestServer(t, dir)
		archivetest.Write(t, first.cfg.ArchivePath, full[:ev.End])
		runToEnd(t, first)
		archivetest.Write(t, first.cfg.ArchivePath, full)
		second := newTestServer(t, dir)
		runToEnd(t, second)
		if got := worldFile(t, second); !bytes.Equal(got, wantWorld) {
			st := decodeJSON[Status](t, get(second.Handler(), "/v1/status"))
			t.Fatalf("stopped after %d section(s): resumed world differs from the clean pass's (%+v)", k+1, st)
		}
	}
}

// TestCommitLeavesOneFile: a commit writes the world file and nothing
// beside it. After two sections, a restart and an archive-shrink reset, the
// world's directory holds the world file alone: no second copy of the
// cursor, no temp file.
func TestCommitLeavesOneFile(t *testing.T) {
	dir := t.TempDir()
	worldDir := filepath.Join(dir, "world")
	if err := os.Mkdir(worldDir, 0o755); err != nil {
		t.Fatal(err)
	}
	cfg := Config{ArchivePath: filepath.Join(dir, "scans.tsv"), WorldPath: filepath.Join(worldDir, "world.colstore")}
	archivetest.Write(t, cfg.ArchivePath, archiveBytes(t, []simtime.Day{400, 430}, 30))
	runToEnd(t, New(cfg))
	restarted := New(cfg)
	runToEnd(t, restarted)
	archivetest.Write(t, cfg.ArchivePath, archiveBytes(t, []simtime.Day{500}, 10))
	if err := restarted.pollOnce(); err != nil {
		t.Fatal(err)
	}
	if st := decodeJSON[Status](t, get(restarted.Handler(), "/v1/status")); st.Sections != 1 {
		t.Fatalf("status after the reset: %+v, want 1 section", st)
	}
	entries, err := os.ReadDir(worldDir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		names = append(names, e.Name())
	}
	if len(names) != 1 || names[0] != "world.colstore" {
		t.Fatalf("the world's directory holds %q, want only world.colstore", names)
	}
}

// TestChaosCorruptTailQuarantined: a corrupted section in the tail is
// quarantined and counted while ingest continues past it; the daemon
// stays up and serves the sections around the damage.
func TestChaosCorruptTailQuarantined(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	archivetest.Append(t, s.cfg.ArchivePath, archivetest.Archive(t, mkSnap(500, 40)))

	// Append a section and flip one byte in its body.
	var buf bytes.Buffer
	if err := mkSnap(530, 40).WriteArchiveSection(&buf); err != nil {
		t.Fatal(err)
	}
	bad := buf.Bytes()
	bad[len(bad)/2] ^= 0x40
	f, err := os.OpenFile(s.cfg.ArchivePath, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(bad); err != nil {
		t.Fatal(err)
	}
	f.Close()
	archivetest.Append(t, s.cfg.ArchivePath, archivetest.Archive(t, mkSnap(560, 40)))

	runToEnd(t, s)
	st := decodeJSON[Status](t, get(s.Handler(), "/v1/status"))
	if st.Sections != 2 || st.Quarantined != 1 {
		t.Fatalf("status after corrupt tail: %+v, want 2 sections + 1 quarantined", st)
	}
	if st.LastDay != simtime.Day(560).String() {
		t.Fatalf("last day %s, want %s: ingest did not continue past the damage", st.LastDay, simtime.Day(560))
	}
	// The quarantine is itself committed: a restart does not re-count it.
	s2 := newTestServer(t, dir)
	runToEnd(t, s2)
	st2 := decodeJSON[Status](t, get(s2.Handler(), "/v1/status"))
	if st2.Sections != 2 || st2.Quarantined != 1 {
		t.Fatalf("status after restart: %+v", st2)
	}
}

// TestChaosDamageIsLocatable: damage found by a later poll is logged with
// its absolute byte offset in the archive — where the damaged section's
// header sits in the file — not a position counted from where that poll
// resumed.
func TestChaosDamageIsLocatable(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	archivetest.Append(t, s.cfg.ArchivePath, archiveBytes(t, []simtime.Day{500, 530}, 40))
	runToEnd(t, s)

	good := archivetest.Read(t, s.cfg.ArchivePath)
	bad := archiveBytes(t, []simtime.Day{560}, 40)
	bad[len(bad)/2] ^= 0x40
	archivetest.Write(t, s.cfg.ArchivePath, append(good, bad...))
	logged := logtest.Capture(t)
	if err := s.pollOnce(); err != nil {
		t.Fatal(err)
	}
	recs := logged.Records("")
	if len(recs) != 1 || recs[0].Message != "apiserv: archive damage quarantined" || recs[0].Level != slog.LevelWarn ||
		recs[0].Attrs["day"] != simtime.Day(560).String() || recs[0].Attrs["offset"] != strconv.Itoa(len(good)) {
		t.Fatalf("second poll logged %+v, want one warning locating the damage at day %s, offset %d", recs, simtime.Day(560), len(good))
	}
}

// TestChaosArchiveRotated: an archive that shrinks below the committed
// offset resets the daemon to a clean full re-ingest of the new file.
func TestChaosArchiveRotated(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	archivetest.Append(t, s.cfg.ArchivePath, archiveBytes(t, []simtime.Day{600, 630}, 70))
	runToEnd(t, s)

	// Rotation: the archive is replaced by a shorter, different file.
	archivetest.Write(t, s.cfg.ArchivePath, archiveBytes(t, []simtime.Day{700}, 30))
	if err := s.pollOnce(); err != nil {
		t.Fatal(err)
	}
	st := decodeJSON[Status](t, get(s.Handler(), "/v1/status"))
	if st.Sections != 1 || st.LastDay != simtime.Day(700).String() {
		t.Fatalf("status after rotation: %+v, want 1 section at day %s", st, simtime.Day(700))
	}
	got := decodeJSON[table1Doc](t, get(s.Handler(), "/v1/table1"))
	total := 0
	for _, row := range got.TLDs {
		total += row.Domains
	}
	if wantDomains := 28; total != wantDomains { // 30 targets minus failed i=10,21
		t.Fatalf("%d domains after rotation, want %d", total, wantDomains)
	}
}

// TestChaosFloodShedsNotCrash: a flood against a tiny admission gate
// yields only 200s and 429s — nothing hangs, nothing dies, and the gate
// accounts for every shed request.
func TestChaosFloodShedsNotCrash(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	s.gate = newGate(2, 1, time.Millisecond)
	archivetest.Append(t, s.cfg.ArchivePath, archivetest.Archive(t, mkSnap(800, 40)))
	runToEnd(t, s)

	// A deliberately slow route keeps slots occupied so the flood has
	// something to collide with.
	s.mux.HandleFunc("GET /v1/slow", func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	})
	h := s.Handler()

	const flood = 80
	var wg sync.WaitGroup
	codes := make(chan int, flood)
	for i := 0; i < flood; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/slow", nil))
			codes <- rec.Code
		}()
	}
	wg.Wait()
	close(codes)
	ok, shed := 0, 0
	for c := range codes {
		switch c {
		case http.StatusOK:
			ok++
		case http.StatusTooManyRequests:
			shed++
		default:
			t.Fatalf("unexpected status %d under flood", c)
		}
	}
	if ok == 0 || shed == 0 {
		t.Fatalf("flood: %d ok, %d shed — want both >0", ok, shed)
	}
	if _, gateShed := s.GateStats(); gateShed != uint64(shed) {
		t.Fatalf("gate shed counter %d, responses %d", gateShed, shed)
	}
	// The daemon still answers normally after the storm.
	if rec := get(h, "/v1/table1"); rec.Code != http.StatusOK {
		t.Fatalf("post-flood table1: %d", rec.Code)
	}
}

// TestChaosPoisonedHandler: a route that panics returns 500 and leaves
// the daemon fully functional; its admission slot is released.
func TestChaosPoisonedHandler(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	archivetest.Append(t, s.cfg.ArchivePath, archivetest.Archive(t, mkSnap(900, 20)))
	runToEnd(t, s)
	s.mux.HandleFunc("GET /v1/boom", func(w http.ResponseWriter, r *http.Request) {
		panic("poisoned request")
	})
	h := s.Handler()
	for i := 0; i < 3; i++ {
		if rec := get(h, "/v1/boom"); rec.Code != http.StatusInternalServerError {
			t.Fatalf("poisoned request %d: %d, want 500", i, rec.Code)
		}
	}
	if s.panics.Load() != 3 {
		t.Fatalf("panic counter %d, want 3", s.panics.Load())
	}
	if rec := get(h, "/v1/table1"); rec.Code != http.StatusOK {
		t.Fatalf("table1 after panics: %d", rec.Code)
	}
	st := decodeJSON[Status](t, get(h, "/v1/status"))
	if st.Panics != 3 {
		t.Fatalf("status panics %d, want 3", st.Panics)
	}
}

// panicOnce is a slog.Handler that panics on the first record with message
// msg and drops every record: a log call in the tailer's path then stands in
// for a transient bug there.
type panicOnce struct {
	msg   string
	fired atomic.Bool
}

func (h *panicOnce) Enabled(context.Context, slog.Level) bool { return true }
func (h *panicOnce) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *panicOnce) WithGroup(string) slog.Handler            { return h }
func (h *panicOnce) Handle(_ context.Context, r slog.Record) error {
	if r.Message == h.msg && h.fired.CompareAndSwap(false, true) {
		panic("transient bug at " + h.msg)
	}
	return nil
}

// panicOnceAt makes the tailer panic the first time it logs msg, until the
// test ends. Tests that call it must not run in parallel.
func panicOnceAt(t *testing.T, msg string) {
	logtest.Capture(t) // restores the default logger when the test ends
	slog.SetDefault(slog.New(&panicOnce{msg: msg}))
}

// TestChaosTailerPanicIsSupervised: a panic in the middle of an ingest —
// the section folded, its commit not yet made — takes down the tailer, not
// the process: Run restarts it, the section is folded again, and the world
// file equals a clean run's.
func TestChaosTailerPanicIsSupervised(t *testing.T) {
	archive := archiveBytes(t, []simtime.Day{950}, 30)
	clean := newTestServer(t, t.TempDir())
	archivetest.Write(t, clean.cfg.ArchivePath, archive)
	runToEnd(t, clean)

	s := newTestServer(t, t.TempDir())
	archivetest.Write(t, s.cfg.ArchivePath, archive)
	panicOnceAt(t, "apiserv: failed records skipped")
	runUntilCleanup(t, s)
	h := s.Handler()
	waitFor(t, "recovery after tailer panic", func() bool {
		return get(h, "/readyz").Code == http.StatusOK
	})
	st := decodeJSON[Status](t, get(h, "/v1/status"))
	if st.Sections != 1 || st.Restarts != 1 {
		t.Fatalf("status after the restart: %+v, want 1 section and 1 restart", st)
	}
	if !bytes.Equal(worldFile(t, s), worldFile(t, clean)) {
		t.Fatal("the world after a tailer panic differs from the clean world")
	}
}

// Stalled-reader chaos (slow clients holding connections) is covered at
// the listener layer by internal/httpx's slow-client test; the unit here
// is everything above the listener.

// TestChaosTextArchiveRefused: an archive of text sections, as written
// before each section became a gzip member, fails the poll with
// dataset.ErrTextArchive, for Run to report and retry, and commits
// nothing.
func TestChaosTextArchiveRefused(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	archivetest.Write(t, s.cfg.ArchivePath, archivetest.Zcat(t, archiveBytes(t, []simtime.Day{50, 80}, 10)))
	if err := s.resumeOnce(); err != nil {
		t.Fatal(err)
	}
	if err := s.pollOnce(); !errors.Is(err, dataset.ErrTextArchive) {
		t.Fatalf("polling a text archive: %v, want ErrTextArchive", err)
	}
	if _, err := os.Stat(s.cfg.WorldPath); !os.IsNotExist(err) || s.cur != noCursor {
		t.Fatalf("a text archive committed %+v (world: %v)", s.cur, err)
	}
}

// refused is the warning of a world file resume cannot load.
const refused = "apiserv: cannot load world; re-ingesting from scratch"

// TestChaosDamagedWorldReingests: the world member of a first section, cut
// at any offset, with any checked byte flipped, or followed by anything, is
// refused with a warning, and the daemon re-ingests the two-section archive
// from scratch to a world file byte-identical to a clean run's; so is the
// raw colstore world the member wraps, as worlds were written before they
// were deflated. The member header's mtime, XFL and OS bytes are covered by
// no checksum: a flip there leaves the world intact, it resumes, and the
// next commit rewrites it.
func TestChaosDamagedWorldReingests(t *testing.T) {
	days := []simtime.Day{200, 230}
	full := archiveBytes(t, days, 12)
	clean := newTestServer(t, t.TempDir())
	archivetest.Write(t, clean.cfg.ArchivePath, full)
	runToEnd(t, clean)
	want := worldFile(t, clean)

	first := newTestServer(t, t.TempDir())
	archivetest.Write(t, first.cfg.ArchivePath, archiveBytes(t, days[:1], 12))
	runToEnd(t, first)
	member := worldFile(t, first)
	if raw := archivetest.Zcat(t, member); !bytes.HasPrefix(raw, []byte("regsecW1")) {
		t.Fatalf("the member inflates to bytes beginning %q, not a raw colstore world", raw[:min(len(raw), 8)])
	}
	// resumes marks the damage that leaves the world intact.
	type damage struct {
		name    string
		world   []byte
		resumes bool
	}
	cases := []damage{
		{"trailing byte", append(bytes.Clone(member), 0), false},
		{"trailing member", append(bytes.Clone(member), member...), false},
		{"raw world", archivetest.Zcat(t, member), false},
	}
	for cut := range member {
		cases = append(cases, damage{"cut at " + strconv.Itoa(cut), member[:cut], false})
	}
	for i := range member {
		flipped := bytes.Clone(member)
		flipped[i] ^= 0xff
		cases = append(cases, damage{"byte " + strconv.Itoa(i) + " flipped", flipped, i >= 4 && i < 10})
	}
	// Four workers each read one copy of the archive, in a directory of
	// their own, and write each case's damaged world over the one their
	// last case committed; their commits' fsyncs overlap. A warning names
	// the world it refused.
	logged := logtest.Capture(t)
	warnings := func(world string) (n int) {
		for _, r := range logged.Records(refused) {
			if r.Attrs["world"] == world {
				n++
			}
		}
		return n
	}
	const workers = 4
	var wg sync.WaitGroup
	for w := range workers {
		dir := t.TempDir()
		archivetest.Write(t, newTestServer(t, dir).cfg.ArchivePath, full)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := w; k < len(cases); k += workers {
				c, s := cases[k], newTestServer(t, dir)
				err := os.WriteFile(s.cfg.WorldPath, c.world, 0o644)
				before := warnings(s.cfg.WorldPath)
				if err == nil {
					err = s.resumeOnce()
				}
				if err == nil {
					err = s.pollOnce()
				}
				warned := warnings(s.cfg.WorldPath) - before
				got, rerr := os.ReadFile(s.cfg.WorldPath)
				switch {
				case err != nil || rerr != nil:
					t.Errorf("%s: %v, %v", c.name, err, rerr)
				case c.resumes && warned != 0 || !c.resumes && warned != 1:
					t.Errorf("%s: warned %d times (world intact: %v)", c.name, warned, c.resumes)
				case !bytes.Equal(got, want):
					t.Errorf("%s: world after the re-ingest differs from the clean world", c.name)
				default:
					continue
				}
				return
			}
		}()
	}
	wg.Wait()
}
