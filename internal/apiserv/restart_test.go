package apiserv

import (
	"context"
	"net/http"
	"slices"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/logtest"
	"securepki.org/registrarsec/internal/simtime"
)

// runUntilCleanup runs s.Run until the test ends, then waits for it to
// return, before the cleanups registered earlier run.
func runUntilCleanup(t *testing.T, s *Server) {
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	t.Cleanup(func() { cancel(); <-done })
}

// TestRunRestartsPanickingTailer: a tailer that panics while it resumes the
// committed world is restarted instead of taking the process down, and the
// restart is counted in /v1/status.
func TestRunRestartsPanickingTailer(t *testing.T) {
	dir := t.TempDir()
	first := newTestServer(t, dir)
	archivetest.Append(t, first.cfg.ArchivePath, archivetest.Archive(t, mkSnap(700, 20)))
	runToEnd(t, first)

	s := newTestServer(t, dir)
	panicOnceAt(t, "apiserv: resumed world")
	runUntilCleanup(t, s)
	h := s.Handler()
	waitFor(t, "the restarted tailer", func() bool {
		return get(h, "/readyz").Code == http.StatusOK
	})
	if st := decodeJSON[Status](t, get(h, "/v1/status")); st.Restarts != 1 || st.Sections != 1 {
		t.Fatalf("status after the restart: %+v, want 1 restart and the resumed section", st)
	}
}

// TestRunReturnsOnCancel: a tailer that fails every poll is logged and
// restarted on restartDelay's schedule, and cancellation ends Run.
func TestRunReturnsOnCancel(t *testing.T) {
	s := newTestServer(t, t.TempDir())
	// A text archive fails every poll with dataset.ErrTextArchive.
	archivetest.Write(t, s.cfg.ArchivePath, archivetest.Zcat(t, archiveBytes(t, []simtime.Day{50}, 10)))
	logged := logtest.Capture(t)
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		s.Run(ctx)
	}()
	waitFor(t, "two restarts", func() bool { return s.restarts.Load() >= 2 })
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not return on cancel")
	}
	recs := logged.Records("apiserv: tailer failed, restarting")
	if len(recs) < 2 || recs[0].Attrs["delay"] != "100ms" || recs[1].Attrs["delay"] != "200ms" {
		t.Fatalf("restarts logged %+v, want delays 100ms then 200ms", recs)
	}
}

// TestRestartDelaySchedule: the wait starts at 100 ms, doubles per
// consecutive failure up to 5 s, and starts over after a run that lasted
// longer than 30 s.
func TestRestartDelaySchedule(t *testing.T) {
	const quick = time.Second
	var got []time.Duration
	for delay := time.Duration(0); len(got) < 8; {
		delay = restartDelay(delay, quick)
		got = append(got, delay)
	}
	want := []time.Duration{100 * time.Millisecond, 200 * time.Millisecond, 400 * time.Millisecond, 800 * time.Millisecond,
		1600 * time.Millisecond, 3200 * time.Millisecond, 5 * time.Second, 5 * time.Second}
	if !slices.Equal(got, want) {
		t.Fatalf("delays %v, want %v", got, want)
	}
	if d := restartDelay(5*time.Second, 30*time.Second); d != 5*time.Second {
		t.Errorf("after a 30s run the delay is %v, want 5s kept", d)
	}
	if d := restartDelay(5*time.Second, 31*time.Second); d != 100*time.Millisecond {
		t.Errorf("after a 31s run the delay is %v, want 100ms", d)
	}
}
