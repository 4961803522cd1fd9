package dsweep

import (
	"bytes"
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// fakeClock is a hand-cranked time source.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock               { return &fakeClock{t: time.Unix(1700000000, 0)} }
func day(n int) simtime.Day                  { return simtime.Day(n) }
func testPlan(shards int, days ...int) Plan {
	p := Plan{Fingerprint: "test-plan-v1", Shards: shards}
	for _, d := range days {
		p.Days = append(p.Days, day(d))
	}
	return p
}

// makeSnap fabricates a canonical snapshot with n records for a day.
func makeSnap(d simtime.Day, names ...string) *dataset.Snapshot {
	snap := &dataset.Snapshot{Day: d}
	for _, name := range names {
		snap.Records = append(snap.Records, dataset.Record{Domain: name, TLD: "com", Operator: "op.net"})
	}
	snap.Canonicalize()
	return snap
}

// openStore opens a checkpoint store in a fresh temp dir.
func openStore(t testing.TB) *checkpoint.Store {
	t.Helper()
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// coordinator opens a coordinator over cfg and closes it when the test
// ends, if the test has not.
func coordinator(t testing.TB, cfg CoordinatorConfig) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// refuses requires NewCoordinator to refuse cfg with an error naming want.
func refuses(t *testing.T, cfg CoordinatorConfig, want string) {
	t.Helper()
	c, err := NewCoordinator(cfg)
	if err == nil {
		c.Close()
	}
	if err == nil || !strings.Contains(err.Error(), want) {
		t.Errorf("a coordinator over %q accepted, want an error naming %q: %v", cfg.Plan.Fingerprint, want, err)
	}
}

// flush writes a unit's snapshot as the given owner — one chunk at the
// default chunk size, as a worker would cut so small a shard — and returns
// the unit's manifest.
func flush(t testing.TB, st *checkpoint.Store, u UnitID, owner string, snap *dataset.Snapshot) *checkpoint.ChunkProgress {
	t.Helper()
	manifest := checkpoint.NewChunkProgress(scan.DefaultChunk, len(snap.Records))
	for c := 0; c < manifest.Chunks; c++ {
		meta, err := st.WriteChunk(u.Day, u.Shard, c, owner, snap)
		if err != nil {
			t.Fatal(err)
		}
		manifest.Done[c] = meta
	}
	return manifest
}

// mergeArchive runs the coordinator's merge under the given spill options
// and returns the archive bytes, the archive parsed back, and the number of
// run files the merge spilled.
func mergeArchive(t *testing.T, c *Coordinator, spill dataset.SpillOptions) ([]byte, *dataset.Store, int) {
	t.Helper()
	var buf bytes.Buffer
	runs := 0
	err := c.Merge(spill, func(_ simtime.Day, sw *dataset.SpillWriter) error {
		runs += sw.Runs()
		return sw.WriteSectionTo(&buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	store, err := dataset.ReadArchiveStrict(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), store, runs
}

// complete reports a unit done and asserts the settled status.
func complete(t *testing.T, c *Coordinator, leaseID, worker string, u UnitID, manifest *checkpoint.ChunkProgress, want CompleteStatus) {
	t.Helper()
	records := 0
	for _, meta := range manifest.Done {
		records += meta.Records
	}
	rep, err := c.Complete(context.Background(), &CompleteRequest{
		LeaseID: leaseID, Worker: worker, Unit: u,
		Fingerprint: c.cfg.Plan.Fingerprint, Manifest: manifest,
		Health: &scan.SweepHealth{Day: u.Day, Targets: records, Measured: records},
	})
	if err != nil {
		t.Fatalf("complete %s: %v", u, err)
	}
	if rep.Status != want {
		t.Fatalf("complete %s: status %q, want %q", u, rep.Status, want)
	}
}

func TestCoordinatorLeasesInPlanOrderAndMerges(t *testing.T) {
	st := openStore(t)
	clock := newFakeClock()
	c := coordinator(t, CoordinatorConfig{Plan: testPlan(2, 10, 11), Store: st, Now: clock.now})

	ctx := context.Background()
	wantOrder := []UnitID{{day(10), 0}, {day(10), 1}, {day(11), 0}, {day(11), 1}}
	names := [][]string{{"a.com", "b.com"}, {"c.com"}, {"d.com", "e.com"}, {"f.com"}}
	for i, want := range wantOrder {
		g, err := c.Lease(ctx, "w1")
		if err != nil {
			t.Fatal(err)
		}
		if g.Status != GrantRun || g.Unit != want {
			t.Fatalf("lease %d: got %+v, want unit %s", i, g, want)
		}
		snap := makeSnap(want.Day, names[i]...)
		complete(t, c, g.LeaseID, "w1", want, flush(t, st, want, "w1", snap), CompleteAccepted)
	}
	select {
	case <-c.Done():
	default:
		t.Fatal("plan complete but Done not closed")
	}
	g, err := c.Lease(ctx, "w2")
	if err != nil || g.Status != GrantDone {
		t.Fatalf("post-completion lease: %+v, %v", g, err)
	}

	_, store, _ := mergeArchive(t, c, dataset.SpillOptions{})
	if store.Len() != 2 {
		t.Fatalf("merged days: %d", store.Len())
	}
	if got := len(store.Get(day(10)).Records); got != 3 {
		t.Fatalf("day 10 records: %d", got)
	}
	if got := store.Get(day(11)).Records[0].Domain; got != "d.com" {
		t.Fatalf("shard order lost in merge: first record %s", got)
	}
	byDay, byWorker := c.Health()
	if byDay[day(10)].Measured != 3 || byWorker["w1"].Measured != 6 {
		t.Fatalf("health attribution: day=%+v worker=%+v", byDay[day(10)], byWorker["w1"])
	}
}

func TestCoordinatorExpiredLeaseIsReleased(t *testing.T) {
	st := openStore(t)
	clock := newFakeClock()
	c := coordinator(t, CoordinatorConfig{Plan: testPlan(1, 10), Store: st, Now: clock.now, LeaseTTL: time.Second})

	ctx := context.Background()
	g1, _ := c.Lease(ctx, "w1")
	if g1.Status != GrantRun {
		t.Fatalf("first lease: %+v", g1)
	}
	// While the lease is live, a second worker must wait, as long as its
	// request may.
	waiting := func() *Grant {
		ctx, cancel := context.WithTimeout(ctx, 20*time.Millisecond)
		defer cancel()
		g, _ := c.Lease(ctx, "w2")
		return g
	}
	if g := waiting(); g.Status != GrantWait {
		t.Fatalf("concurrent lease: %+v", g)
	}
	// Heartbeat extends: half a TTL later + heartbeat + half a TTL later
	// must still be w1's lease.
	clock.advance(600 * time.Millisecond)
	if err := c.Heartbeat(ctx, g1.LeaseID); err != nil {
		t.Fatal(err)
	}
	clock.advance(600 * time.Millisecond)
	if g := waiting(); g.Status != GrantWait {
		t.Fatalf("lease stolen despite heartbeat: %+v", g)
	}
	// Past the extended deadline the unit is re-leased.
	clock.advance(2 * time.Second)
	g2, _ := c.Lease(ctx, "w2")
	if g2.Status != GrantRun || g2.Unit != g1.Unit {
		t.Fatalf("expired unit not re-leased: %+v", g2)
	}
	if s := c.Stats(); s.Releases != 1 {
		t.Fatalf("releases: %d", s.Releases)
	}
	// The old lease is dead for heartbeats...
	if err := c.Heartbeat(ctx, g1.LeaseID); err == nil {
		t.Fatal("heartbeat on expired lease succeeded")
	}
	// ...but its late completion still settles (after w2 completes first).
	u := g2.Unit
	snap := makeSnap(u.Day, "a.com")
	meta := flush(t, st, u, "w2", snap)
	complete(t, c, g2.LeaseID, "w2", u, meta, CompleteAccepted)
	lateMeta := flush(t, st, u, "w1", snap)
	complete(t, c, g1.LeaseID, "w1", u, lateMeta, CompleteDuplicate)
	if s := c.Stats(); s.Duplicates != 1 || s.Divergent != 0 {
		t.Fatalf("stats: %+v", s)
	}
}

// TestLeaseWaitsForThePool: a Lease that finds every pending unit leased
// returns as soon as that changes — a completion, a lease's expiry, the
// coordinator's Close — and not on a polling cadence.
func TestLeaseWaitsForThePool(t *testing.T) {
	type answer struct {
		g    *Grant
		took time.Duration
	}
	waitFor := func(c *Coordinator) <-chan answer {
		out := make(chan answer, 1)
		go func() {
			start := time.Now()
			g, err := c.Lease(context.Background(), "w2")
			if err != nil {
				t.Error(err)
			}
			out <- answer{g, time.Since(start)}
		}()
		return out
	}
	quiet := func(t *testing.T, got <-chan answer) {
		t.Helper()
		select {
		case a := <-got:
			t.Fatalf("Lease answered %+v while every unit was leased", a.g)
		case <-time.After(50 * time.Millisecond):
		}
	}

	t.Run("complete", func(t *testing.T) {
		st := openStore(t)
		c := coordinator(t, CoordinatorConfig{Plan: testPlan(1, 10), Store: st, LeaseTTL: time.Minute})
		g, _ := c.Lease(context.Background(), "w1")
		got := waitFor(c)
		quiet(t, got)
		complete(t, c, g.LeaseID, "w1", g.Unit, flush(t, st, g.Unit, "w1", makeSnap(g.Unit.Day, "a.com")), CompleteAccepted)
		if a := <-got; a.g.Status != GrantDone || a.took > 5*time.Second {
			t.Errorf("after the completion: %+v after %v", a.g, a.took)
		}
	})
	t.Run("expiry", func(t *testing.T) {
		c := coordinator(t, CoordinatorConfig{Plan: testPlan(1, 10), Store: openStore(t), LeaseTTL: 200 * time.Millisecond})
		g1, _ := c.Lease(context.Background(), "w1")
		if a := <-waitFor(c); a.g.Status != GrantRun || a.g.Unit != g1.Unit || a.took < 150*time.Millisecond || a.took > 5*time.Second {
			t.Errorf("after the lease expired: %+v after %v", a.g, a.took)
		}
	})
	t.Run("close", func(t *testing.T) {
		c := coordinator(t, CoordinatorConfig{Plan: testPlan(1, 10), Store: openStore(t), LeaseTTL: time.Minute})
		c.Lease(context.Background(), "w1")
		got := waitFor(c)
		quiet(t, got)
		c.Close()
		if a := <-got; a.g.Status != GrantWait {
			t.Errorf("after Close: %+v", a.g)
		}
	})
}

func TestCoordinatorDivergentDuplicateSettledByValue(t *testing.T) {
	// Run both arrival orders: the surviving checksum must be the same.
	for _, swap := range []bool{false, true} {
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
		metaA := flush(t, st, u, "w1", makeSnap(u.Day, "a.com"))
		metaB := flush(t, st, u, "w2", makeSnap(u.Day, "b.com"))
		want := metaA
		if compareManifests(metaB, metaA) < 0 {
			want = metaB
		}
		first, second := g2, g1
		firstMeta, secondMeta := metaB, metaA
		firstW, secondW := "w2", "w1"
		if swap {
			first, second = g1, g2
			firstMeta, secondMeta = metaA, metaB
			firstW, secondW = "w1", "w2"
		}
		complete(t, c, first.LeaseID, firstW, u, firstMeta, CompleteAccepted)
		complete(t, c, second.LeaseID, secondW, u, secondMeta, CompleteDivergent)
		if got := c.units[u].manifest.Done[0].CRC; got != want.Done[0].CRC {
			t.Fatalf("swap=%v: winner crc %08x, want %08x", swap, got, want.Done[0].CRC)
		}
		c.Close()
	}
}

func TestCoordinatorRejectsUnverifiableShard(t *testing.T) {
	st := openStore(t)
	c := coordinator(t, CoordinatorConfig{Plan: testPlan(1, 10), Store: st})
	u := UnitID{day(10), 0}
	g, _ := c.Lease(context.Background(), "w1")
	meta := flush(t, st, u, "w1", makeSnap(u.Day, "a.com"))
	meta.Done[0].CRC ^= 1 // claim bytes that are not on disk
	rep, err := c.Complete(context.Background(), &CompleteRequest{
		LeaseID: g.LeaseID, Worker: "w1", Unit: u, Fingerprint: c.cfg.Plan.Fingerprint, Manifest: meta,
	})
	if err != nil || rep.Status != CompleteRejected {
		t.Fatalf("bad shard: %+v, %v", rep, err)
	}
	// The unit must be grantable again.
	g2, _ := c.Lease(context.Background(), "w2")
	if g2.Status != GrantRun || g2.Unit != u {
		t.Fatalf("rejected unit not re-leased: %+v", g2)
	}
	if s := c.Stats(); s.Rejected != 1 {
		t.Fatalf("stats: %+v", s)
	}
}

func TestCoordinatorRestartRecoversState(t *testing.T) {
	st := openStore(t)
	plan := testPlan(2, 10, 11)
	c1 := coordinator(t, CoordinatorConfig{Plan: plan, Store: st})
	ctx := context.Background()
	// Complete the first unit, lease (but never finish) the second.
	g1, _ := c1.Lease(ctx, "w1")
	complete(t, c1, g1.LeaseID, "w1", g1.Unit, flush(t, st, g1.Unit, "w1", makeSnap(g1.Unit.Day, "a.com")), CompleteAccepted)
	if _, err := c1.Lease(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	if err := c1.Close(); err != nil { // coordinator dies; state stays
		t.Fatal(err)
	}

	// Restart with a clock one minute ahead, so the dead run's restored
	// in-flight lease is immediately expired and its unit re-leasable.
	c2 := coordinator(t, CoordinatorConfig{Plan: plan, Store: st,
		Now: func() time.Time { return time.Now().Add(time.Minute) }})
	if s := c2.Stats(); s.Recovered != 1 || s.Done != 1 {
		t.Fatalf("restored stats: %+v", s)
	}
	seen := map[UnitID]bool{g1.Unit: true}
	for i := 0; i < plan.Units()-1; i++ {
		g, err := c2.Lease(ctx, "w2")
		if err != nil {
			t.Fatal(err)
		}
		if g.Status != GrantRun {
			t.Fatalf("lease %d after restart: %+v", i, g)
		}
		if seen[g.Unit] {
			t.Fatalf("unit %s granted twice", g.Unit)
		}
		seen[g.Unit] = true
		// One domain per unit: a day's shards partition its targets.
		name := fmt.Sprintf("z%d.com", g.Unit.Shard)
		complete(t, c2, g.LeaseID, "w2", g.Unit, flush(t, st, g.Unit, "w2", makeSnap(g.Unit.Day, name)), CompleteAccepted)
	}
	select {
	case <-c2.Done():
	default:
		t.Fatal("plan not done after draining all units")
	}
	mergeArchive(t, c2, dataset.SpillOptions{})

	// Health survives the restart.
	byDay, _ := c2.Health()
	if byDay[g1.Unit.Day] == nil || byDay[g1.Unit.Day].Measured == 0 {
		t.Fatalf("health lost across restart: %+v", byDay)
	}
}

func TestCoordinatorRefusesForeignState(t *testing.T) {
	st := openStore(t)
	plan := testPlan(1, 10)
	c1 := coordinator(t, CoordinatorConfig{Plan: plan, Store: st})
	c1.Lease(context.Background(), "w1")
	c1.Close()

	other := plan
	other.Fingerprint = "different-plan"
	refuses(t, CoordinatorConfig{Plan: other, Store: st}, "different sweep")
	refuses(t, CoordinatorConfig{Plan: testPlan(3, 10), Store: st}, "shards")
}

// refusedAsDifferentSweep leaves a coordinator.json and a checkpoint.json
// written under the fingerprint old and requires the plan's coordinator and
// its single-process sweep to refuse them.
func refusedAsDifferentSweep(t *testing.T, plan Plan, old string) {
	t.Helper()
	if plan.Fingerprint == old {
		t.Fatalf("the plan still fingerprints as %q", old)
	}
	st := openStore(t)
	c1 := coordinator(t, CoordinatorConfig{Plan: Plan{Fingerprint: old, Days: plan.Days, Shards: plan.Shards, Chunk: plan.Chunk}, Store: st})
	if _, err := c1.Lease(context.Background(), "w1"); err != nil { // writes coordinator.json
		t.Fatal(err)
	}
	c1.Close()
	refuses(t, CoordinatorConfig{Plan: plan, Store: st}, "different sweep")

	cp := openStore(t)
	if err := cp.Save(&checkpoint.Header{Fingerprint: old}); err != nil {
		t.Fatal(err)
	}
	rs := &scan.ResumableSweep{Checkpoint: cp, Fingerprint: plan.Fingerprint, Shards: plan.Shards, Chunk: plan.Chunk,
		StreamSetup: func(context.Context, simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
			t.Error("the sweep started on a foreign checkpoint")
			return nil, nil, nil, context.Canceled
		}}
	if err := rs.RunStream(context.Background(), plan.Days, nil); err == nil ||
		!strings.Contains(err.Error(), "different sweep") {
		t.Errorf("checkpoint.json of %q accepted: %v", old, err)
	}
}

// TestSweepStateOfGeneratorV1IsRefused: a sweep fingerprint names the
// world's generator, so a coordinator ledger or a single-process checkpoint
// recorded before the generator changed (the v1 fingerprint had scale= and
// seed= but no world=) cannot be resumed into an archive of two worlds.
func TestSweepStateOfGeneratorV1IsRefused(t *testing.T) {
	const v1 = "sweep scale=4000 seed=1 days=2016-12-31 sample=50 shards=2 faults=0/0/1 retries=3 resweeps=2 cache=false dedup=false chunk=8"
	spec := &WorldSpec{ScaleDiv: 4000, Seed: 1, Sample: 50}
	plan := spec.PlanFor([]simtime.Day{simtime.End}, 2, 8)
	if want := "world=" + spec.WorldConfig().Fingerprint() + " "; !strings.Contains(plan.Fingerprint, want) {
		t.Fatalf("fingerprint %q does not name the world (%q)", plan.Fingerprint, want)
	}
	refusedAsDifferentSweep(t, plan, v1)
}

// TestParentFormatLedgerIsRefused: the fingerprint became an encoding of the
// spec; a ledger carrying one of the two hand-formatted strings it replaced
// (regsec-scan/regsec-sweepd's, and the facade's with its "dsweep " twin)
// belongs to a different sweep.
func TestParentFormatLedgerIsRefused(t *testing.T) {
	spec := &WorldSpec{ScaleDiv: 4000, Seed: 1, Sample: 50}
	plan := spec.PlanFor([]simtime.Day{simtime.End}, 2, 8)
	world := spec.WorldConfig().Fingerprint()
	facade := "world=" + world + " sample=50 seed=1 days=[2016-12-31] shards=2 faultseed=0 faults=[] chunk=4096"
	for _, old := range []string{
		"sweep world=" + world + " scale=4000 seed=1 days=2016-12-31 sample=50 shards=2 faults=0/0.2/1 retries=3 resweeps=2 cache=false dedup=false chunk=8",
		facade,
		"dsweep " + facade,
	} {
		refusedAsDifferentSweep(t, plan, old)
	}
}

func TestCoordinatorLockRefusesSecondInstance(t *testing.T) {
	st := openStore(t)
	plan := testPlan(1, 10)
	coordinator(t, CoordinatorConfig{Plan: plan, Store: st})
	refuses(t, CoordinatorConfig{Plan: plan, Store: st}, "locked")
}

func TestPlanValidation(t *testing.T) {
	cases := []struct {
		plan Plan
		want string
	}{
		{Plan{Days: []simtime.Day{1}, Shards: 1}, "fingerprint"},
		{Plan{Fingerprint: "f", Shards: 1}, "no days"},
		{Plan{Fingerprint: "f", Days: []simtime.Day{1}, Shards: 0}, "shard"},
		{Plan{Fingerprint: "f", Days: []simtime.Day{1, 1}, Shards: 1}, "must ascend"},
		{Plan{Fingerprint: "f", Days: []simtime.Day{2, 1}, Shards: 1}, "must ascend"},
		{Plan{Fingerprint: "f", Days: []simtime.Day{1}, Shards: 1, Chunk: -1}, "chunk"},
	}
	for _, tc := range cases {
		if err := tc.plan.validate(); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("plan %+v: err %v, want %q", tc.plan, err, tc.want)
		}
	}
}
