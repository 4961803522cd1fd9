package checkpoint

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/cmdtest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

func openTestStore(t testing.TB) *Store {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestLockExcludesLiveHolder(t *testing.T) {
	s := openTestStore(t)
	release, err := s.AcquireLock("sweep-a", "fp-1")
	if err != nil {
		t.Fatal(err)
	}
	// A second acquisition while the holder (this very process) is alive
	// must fail loudly and name the holder.
	if _, err := s.AcquireLock("sweep-b", "fp-2"); err == nil ||
		!strings.Contains(err.Error(), "locked by sweep-a") {
		t.Fatalf("concurrent lock allowed: %v", err)
	}
	owner, pid, ok := s.LockedBy()
	if !ok || owner != "sweep-a" || pid != os.Getpid() {
		t.Fatalf("LockedBy: %q %d %v", owner, pid, ok)
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
	// Released: the next acquisition succeeds.
	release2, err := s.AcquireLock("sweep-b", "fp-2")
	if err != nil {
		t.Fatal(err)
	}
	if err := release2(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.LockedBy(); ok {
		t.Fatal("lockfile left behind after release")
	}
}

// A LOCK file that no process holds excludes no one, whatever PID it names:
// one that no longer exists, or this very process's, as a sweep restarted
// in a fresh container often is.
func TestLockBreaksStaleDeadOwner(t *testing.T) {
	for _, pid := range []int{1<<22 + 1, os.Getpid()} {
		s := openTestStore(t)
		stale, _ := json.Marshal(lockInfo{PID: pid, Owner: "dead-sweep", Fingerprint: "fp-x"})
		archivetest.Write(t, filepath.Join(s.Dir(), lockFile), stale)
		release, err := s.AcquireLock("sweep-new", "fp-y")
		if err != nil {
			t.Fatalf("a LOCK left behind naming pid %d: %v", pid, err)
		}
		if owner, _, _ := s.LockedBy(); owner != "sweep-new" {
			t.Fatalf("lock not re-owned: %q", owner)
		}
		if err := release(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMain: with REGSEC_RUN_MAIN set, the test binary holds the lock of the
// checkpoint directory its argument names, says "locked" on stdout, and
// keeps it until it is killed.
func TestMain(m *testing.M) {
	if os.Getenv("REGSEC_RUN_MAIN") == "1" {
		s, err := Open(os.Args[1])
		if err == nil {
			_, err = s.AcquireLock("holder", "fp-h")
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Println("locked")
		select {}
	}
	os.Exit(m.Run())
}

// TestLockHeldByAnotherProcess: a lock held by another live process refuses
// a second owner, and is free once that process is killed, its LOCK file
// still in place.
func TestLockHeldByAnotherProcess(t *testing.T) {
	s := openTestStore(t)
	holder := cmdtest.Command(s.Dir())
	holder.Stderr = os.Stderr
	out, err := holder.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := holder.Start(); err != nil {
		t.Fatal(err)
	}
	defer holder.Process.Kill()
	if line, err := bufio.NewReader(out).ReadString('\n'); line != "locked\n" {
		t.Fatalf("holder said %q, %v", line, err)
	}
	want := fmt.Sprintf("locked by holder (pid %d", holder.Process.Pid)
	if _, err := s.AcquireLock("second", "fp-2"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("a second owner while the holder lives: %v, want %q", err, want)
	}
	holder.Process.Kill()
	holder.Wait()
	if _, err := os.Stat(filepath.Join(s.Dir(), lockFile)); err != nil {
		t.Fatalf("the killed holder's LOCK: %v", err)
	}
	release, err := s.AcquireLock("second", "fp-2")
	if err != nil {
		t.Fatalf("after the holder was killed: %v", err)
	}
	if err := release(); err != nil {
		t.Fatal(err)
	}
}

func TestLockBreaksUnparseablePayload(t *testing.T) {
	s := openTestStore(t)
	// A crash mid-write leaves a torn payload, held by no one.
	archivetest.Write(t, filepath.Join(s.Dir(), lockFile), []byte("{torn"))
	release, err := s.AcquireLock("sweep", "fp")
	if err != nil {
		t.Fatalf("torn lock not broken: %v", err)
	}
	release()
}

func TestOwnerTaggedChunkRoundTrip(t *testing.T) {
	s := openTestStore(t)
	day := simtime.Day(42)
	snap := &dataset.Snapshot{Day: day, Records: []dataset.Record{
		{Domain: "b.com", TLD: "com", Operator: "op.net", HasDNSKEY: true},
		{Domain: "a.com", TLD: "com", Operator: "op.net"},
	}}
	snap.Canonicalize()

	other, err := s.WriteChunk(day, 0, 0, "worker-2", snap)
	if err != nil {
		t.Fatal(err)
	}
	owned, err := s.WriteChunk(day, 0, 0, "worker/1!", snap)
	if err != nil {
		t.Fatal(err)
	}
	// Same bytes, distinct files: racing owners can never clobber each
	// other, and identical content has identical checksums.
	if owned.File == other.File {
		t.Fatalf("two owners share one chunk file: %s", owned.File)
	}
	if strings.ContainsAny(owned.File, "/!") {
		t.Fatalf("unsafe owner characters leaked into filename: %s", owned.File)
	}
	if owned.CRC != other.CRC || owned.Records != other.Records {
		t.Fatalf("same snapshot, different metadata: %+v vs %+v", owned, other)
	}
	got, err := s.LoadChunk(day, owned)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || got.Records[0].Domain != "a.com" {
		t.Fatalf("round-trip: %+v", got.Records)
	}

	// Clear removes owner-tagged chunks too.
	if err := s.Clear(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.LoadChunk(day, owned); err == nil {
		t.Fatal("owner-tagged chunk survived Clear")
	}
}

func TestEmptyChunkRoundTrip(t *testing.T) {
	s := openTestStore(t)
	day := simtime.Day(7)
	snap := &dataset.Snapshot{Day: day}
	snap.Canonicalize()
	meta, err := s.WriteChunk(day, 3, 0, "w1", snap)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Records != 0 {
		t.Fatalf("empty chunk records: %d", meta.Records)
	}
	got, err := s.LoadChunk(day, meta)
	if err != nil {
		t.Fatalf("empty chunk does not round-trip: %v", err)
	}
	if len(got.Records) != 0 || got.Day != day {
		t.Fatalf("empty chunk loaded as %+v", got)
	}
}
