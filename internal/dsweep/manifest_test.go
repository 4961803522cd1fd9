package dsweep

// What the manifest-based merge must hold: a duplicate is verified before
// it is adopted, the merge is bounded by the spill budget, a restored
// manifest is re-verified against its files, a finished sweep leaves one
// ledger and its chunk files behind, and no coordinator.json — however
// mangled — restores a done unit without a well-formed manifest.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// A divergent duplicate whose checksum sorts first would win the unit — so
// its files are verified first: damaged, it is rejected and the accepted
// manifest stays, and the merge carries the first completer's bytes.
func TestCoordinatorDivergentDuplicateVerifiedBeforeAdoption(t *testing.T) {
	st := openStore(t)
	clock := newFakeClock()
	c := coordinator(t, CoordinatorConfig{Plan: testPlan(1, 10), Store: st, Now: clock.now, LeaseTTL: time.Second})
	u := UnitID{day(10), 0}
	g1, _ := c.Lease(context.Background(), "w1")
	clock.advance(2 * time.Second) // expire w1
	g2, _ := c.Lease(context.Background(), "w2")
	if g2.Status != GrantRun {
		t.Fatalf("re-lease: %+v", g2)
	}
	good, goodName := flush(t, st, u, "w2", makeSnap(u.Day, "a.com")), "a.com"
	sick, sickName := flush(t, st, u, "w1", makeSnap(u.Day, "b.com")), "b.com"
	if compareManifests(good, sick) < 0 {
		// Whichever sorts first plays the straggler with the sick disk.
		good, sick, goodName = sick, good, sickName
	}
	path := filepath.Join(st.Dir(), sick.Done[0].File)
	data := archivetest.Read(t, path)
	archivetest.Write(t, path, data[:len(data)/2])

	complete(t, c, g2.LeaseID, "w2", u, good, CompleteAccepted)
	complete(t, c, g1.LeaseID, "w1", u, sick, CompleteRejected)
	if s := c.Stats(); s.Rejected != 1 || s.Done != 1 {
		t.Fatalf("stats: %+v", s)
	}
	_, store, _ := mergeArchive(t, c, dataset.SpillOptions{})
	if recs := store.Get(u.Day).Records; len(recs) != 1 || recs[0].Domain != goodName {
		t.Fatalf("merged %+v, want the first completer's %s", recs, goodName)
	}
}

// reopen starts a fresh coordinator over a finished sweep's directory.
func reopen(t *testing.T, env *chaosEnv) *Coordinator {
	t.Helper()
	c := coordinator(t, CoordinatorConfig{Plan: env.plan, Store: env.store})
	if s := c.Stats(); s.Recovered != env.plan.Units() {
		t.Fatalf("restart restored %d of %d manifests", s.Recovered, env.plan.Units())
	}
	return c
}

// The distributed merge under a budget that spills every record to a run
// file emits the bytes of the in-budget merge and of the single process.
func TestMergeForcedSpillByteIdentical(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	env.run(t, 10*time.Second, map[string]*chaos{"w1": nil, "w2": nil})
	c := reopen(t, env)
	inBudget, _, runs := mergeArchive(t, c, dataset.SpillOptions{})
	if runs != 0 {
		t.Fatalf("default budget spilled %d runs", runs)
	}
	spilled, _, runs := mergeArchive(t, c, dataset.SpillOptions{Dir: t.TempDir(), MemBudget: 1})
	if runs < len(env.targets) {
		t.Fatalf("a 1-byte budget spilled only %d runs for %d targets a day", runs, len(env.targets))
	}
	if !bytes.Equal(spilled, inBudget) || !bytes.Equal(spilled, env.want) {
		t.Error("forced-spill merge differs from the in-budget merge or the single-process archive")
	}
}

// A restarted coordinator adopts the manifests, and the merge re-verifies
// them: a chunk file bit-flipped or deleted since is never merged silently —
// the merge fails naming the unit and the chunk.
func TestCoordinatorRestartMergeNamesDamagedChunk(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	env.run(t, 10*time.Second, map[string]*chaos{"w1": nil, "w2": nil})
	c := reopen(t, env)
	discard := func(simtime.Day, *dataset.SpillWriter) error { return nil }
	mergeNames := func(what string, id UnitID, chunk int) {
		t.Helper()
		err := c.Merge(dataset.SpillOptions{}, discard)
		var bad *checkpoint.ChunkError
		if !errors.As(err, &bad) || bad.Chunk != chunk || !strings.Contains(err.Error(), "unit "+id.String()) {
			t.Errorf("%s: merge error %v, want one naming unit %s chunk %d", what, err, id, chunk)
		}
	}

	flipped := UnitID{env.days[0], 1}
	path := filepath.Join(env.store.Dir(), c.units[flipped].manifest.Done[1].File)
	data := archivetest.Read(t, path)
	data[len(data)/2] ^= 0x01
	archivetest.Write(t, path, data)
	mergeNames("bit flip", flipped, 1)
	data[len(data)/2] ^= 0x01
	archivetest.Write(t, path, data)

	deleted := UnitID{env.days[1], 2}
	if err := os.Remove(filepath.Join(env.store.Dir(), c.units[deleted].manifest.Done[0].File)); err != nil {
		t.Fatal(err)
	}
	mergeNames("deleted file", deleted, 0)
}

// checkDirectory asserts what a finished sweep leaves in its checkpoint
// directory: the coordinator's ledger and owner-tagged chunk files — no
// other file kind, no lock — with every chunk file named by exactly one
// manifest, or else written by deadWorker and named by none (so never
// merged). It returns the orphan count.
func checkDirectory(t *testing.T, env *chaosEnv, deadWorker string) int {
	t.Helper()
	data := archivetest.Read(t, filepath.Join(env.store.Dir(), checkpoint.CoordLedger))
	var st coordState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if len(st.Completed) != env.plan.Units() {
		t.Fatalf("ledger completes %d of %d units", len(st.Completed), env.plan.Units())
	}
	named := make(map[string]int)
	for _, pu := range st.Completed {
		for _, meta := range pu.Manifest.Done {
			named[meta.File]++
		}
	}
	entries, err := os.ReadDir(env.store.Dir())
	if err != nil {
		t.Fatal(err)
	}
	orphans := 0
	for _, e := range entries {
		name := e.Name()
		switch {
		case name == checkpoint.CoordLedger:
		case !strings.Contains(name, "-chunk-") || !strings.Contains(name, ".w-") || !strings.HasSuffix(name, ".tsv"):
			t.Errorf("file kind a distributed sweep should not leave behind: %s", name)
		case named[name] == 1:
			delete(named, name)
		case named[name] == 0 && deadWorker != "" && strings.Contains(name, ".w-"+deadWorker+"-"):
			orphans++
		default:
			t.Errorf("chunk file %s is named by %d manifests", name, named[name])
		}
	}
	for name := range named {
		t.Errorf("manifest names %s, which is not in the directory", name)
	}
	return orphans
}

func TestRunLocalLeavesOnlyLedgerAndChunks(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		env := newChunkedEnv(t, 3, 2)
		env.run(t, 10*time.Second, map[string]*chaos{"w1": nil, "w2": nil})
		checkDirectory(t, env, "")
	})
	t.Run("worker killed before its report", func(t *testing.T) {
		env := newChunkedEnv(t, 3, 2)
		env.run(t, 300*time.Millisecond, map[string]*chaos{
			"w1": {claim: 1, act: actKillBeforeReport},
			"w2": nil,
		})
		if orphans := checkDirectory(t, env, "w1"); orphans == 0 {
			t.Error("the killed worker left no orphan chunk behind; the drill exercised nothing")
		}
	})
}

// FuzzCoordinatorRestore restores arbitrary coordinator.json bytes over a
// directory holding a real finished unit's chunk files. It must never
// panic; a state it accepts holds a well-formed manifest for every done
// unit; and a merge that then succeeds emitted exactly the records those
// manifests count, every one through a verified chunk.
func FuzzCoordinatorRestore(f *testing.F) {
	plan := testPlan(2, 10)
	st := openStore(f)
	ledger := filepath.Join(st.Dir(), checkpoint.CoordLedger)
	{
		c := coordinator(f, CoordinatorConfig{Plan: plan, Store: st})
		for _, names := range [][]string{{"a.com", "b.com"}, nil} {
			g, err := c.Lease(context.Background(), "w1")
			if err != nil {
				f.Fatal(err)
			}
			rep, err := c.Complete(context.Background(), &CompleteRequest{
				LeaseID: g.LeaseID, Worker: "w1", Unit: g.Unit, Fingerprint: plan.Fingerprint,
				Manifest: flush(f, st, g.Unit, "w1", makeSnap(g.Unit.Day, names...)),
			})
			if err != nil || rep.Status != CompleteAccepted {
				f.Fatalf("seeding: %+v, %v", rep, err)
			}
		}
		c.Close()
	}
	seed := archivetest.Read(f, ledger)
	f.Add(seed)
	f.Add(bytes.Replace(seed, []byte(`"crc32c": `), []byte(`"crc32c": 1`), 1))
	f.Add(bytes.Replace(seed, []byte(`"chunks": 1`), []byte(`"chunks": 1152921504606846976`), 1))
	f.Add(bytes.Replace(seed, []byte(`"file": "`), []byte(`"file": "../`), 1))
	f.Add([]byte(`{"fingerprint":"test-plan-v1","shards":2,"completed":[{"unit":{"day":"1970-01-11","shard":0},"worker":"w","manifest":null}]}`))
	f.Add([]byte(`{"fingerprint":"test-plan-v1","shards":2,"completed":[{"unit":{"day":"1970-01-11","shard":1},"manifest":{"chunk":4096,"chunks":1,"targets":3,"done":{"0":null}}}]}`))
	f.Add([]byte(`{}`))
	f.Add([]byte(`{torn`))

	f.Fuzz(func(t *testing.T, data []byte) {
		archivetest.Write(t, ledger, data)
		c, err := NewCoordinator(CoordinatorConfig{Plan: plan, Store: st})
		if err != nil {
			return
		}
		defer c.Close()
		want := 0
		for id, u := range c.units {
			if u.manifest == nil {
				continue
			}
			if err := u.manifest.WellFormed(scan.DefaultChunk); err != nil {
				t.Fatalf("restored unit %s as done under a malformed manifest: %v", id, err)
			}
			for _, meta := range u.manifest.Done {
				want += meta.Records
			}
		}
		got := 0
		err = c.Merge(dataset.SpillOptions{}, func(_ simtime.Day, sw *dataset.SpillWriter) error {
			got += sw.Len()
			return nil
		})
		if err == nil && got != want {
			t.Fatalf("merge emitted %d records, the manifests count %d", got, want)
		}
	})
}

// TestChunkOwnerTagsKeepRawNamesApart: workers named "a/b" and "a-b" share
// a filename-safe form, yet under one plan they write different chunk
// files, and neither reads the other's as its own.
func TestChunkOwnerTagsKeepRawNamesApart(t *testing.T) {
	plan := testPlan(1, 10)
	st := openStore(t)
	d := plan.Days[0]
	files := map[string]string{}
	for _, name := range []string{"a/b", "a-b"} {
		w := &Worker{cfg: WorkerConfig{Name: name}}
		meta, err := st.WriteChunk(d, 0, 0, w.chunkOwner(&plan), makeSnap(d, "only-"+strings.ReplaceAll(name, "/", "")+".com"))
		if err != nil {
			t.Fatal(err)
		}
		files[name] = meta.File
	}
	if files["a/b"] == files["a-b"] {
		t.Fatalf("workers a/b and a-b share the chunk file %s", files["a/b"])
	}
	for name, domain := range map[string]string{"a/b": "only-ab.com", "a-b": "only-a-b.com"} {
		w := &Worker{cfg: WorkerConfig{Name: name}}
		snap, _, err := st.ReadChunk(d, 0, 0, w.chunkOwner(&plan))
		if err != nil || len(snap.Records) != 1 || snap.Records[0].Domain != domain {
			t.Errorf("worker %s reads back %v (%v), want its own %s", name, snap, err, domain)
		}
	}
}
