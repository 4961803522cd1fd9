package dsweep

// The chaos harness: a real coordinator + in-process workers sweeping a
// real in-memory signed-DNS world, with scripted kills, stalls, and slow
// disks. The worker knows nothing of it: every injection goes through the
// two things a worker is given anyway, its Coordination and its
// StreamDaySetup, each wrapped by the script. Every test's acceptance bar
// is the same: whatever chaos is injected, the merged archive must be
// byte-identical to an uninterrupted single-process ResumableSweep of the
// same plan — and a worker killed between chunks must resume its shard
// from the durable chunk files instead of from scratch.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/logtest"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// errChaosKilled is what a scripted kill makes Worker.Run return — the
// in-process equivalent of SIGKILL: the worker goroutine exits on the spot,
// with no completion report, no further heartbeat and no cleanup, and
// recovery is entirely the coordinator's lease-expiry path, exactly as with
// a real killed process.
var errChaosKilled = errors.New("dsweep: worker killed by chaos script")

// action is one chaos injection kind.
type action int

const (
	// actKillBeforeReport kills the worker after the scan, in place of the
	// completion report: every chunk of the unit is durable but the
	// coordinator never hears of them, so the unit is re-leased and the
	// orphan chunk files are never referenced by a manifest, hence never
	// merged.
	actKillBeforeReport action = iota + 1
	// actStall swallows the unit's heartbeats and holds the report back by
	// delay, making the worker a straggler: its lease expires, the unit is
	// re-leased, and its late completion arrives as a duplicate.
	actStall
	// actSlowDisk makes the unit's first chunk take delay to prepare while
	// heartbeats continue — a slow disk that should NOT lose the lease.
	actSlowDisk
	// actKillBetweenChunks kills the worker once afterChunks chunks of the
	// unit have been durably flushed, as it prepares the next — the
	// mid-shard SIGKILL the chunk files exist to survive: the same worker,
	// restarted, recovers every flushed chunk from its own files and scans
	// only the rest.
	actKillBetweenChunks
)

// chaos scripts one injection against one worker. A nil *chaos injects
// nothing.
type chaos struct {
	// claim is the 1-based ordinal of the worker's lease claim the
	// injection fires on (the Nth unit this worker starts, whatever unit
	// that is — scripts are written against worker behaviour, not plan
	// layout).
	claim       int
	act         action
	delay       time.Duration
	afterChunks int

	mu       sync.Mutex
	claims   int    // leases granted so far
	lease    string // the scripted claim's lease, once granted
	prepares int    // chunks prepared under it
}

// firesOn reports whether leaseID is the scripted claim's lease.
func (c *chaos) firesOn(leaseID string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lease == leaseID
}

// chaosCoord is a worker's control plane as its script distorts it.
type chaosCoord struct {
	Coordination
	c *chaos
}

func (cc *chaosCoord) Lease(ctx context.Context, worker string) (*Grant, error) {
	g, err := cc.Coordination.Lease(ctx, worker)
	if err == nil && g.Status == GrantRun {
		cc.c.mu.Lock()
		cc.c.lease = ""
		if cc.c.claims++; cc.c.claims == cc.c.claim {
			cc.c.lease = g.LeaseID
		}
		cc.c.mu.Unlock()
	}
	return g, err
}

func (cc *chaosCoord) Heartbeat(ctx context.Context, leaseID string) error {
	if cc.c.act == actStall && cc.c.firesOn(leaseID) {
		return nil // lost on the way: the coordinator hears nothing
	}
	return cc.Coordination.Heartbeat(ctx, leaseID)
}

func (cc *chaosCoord) Complete(ctx context.Context, req *CompleteRequest) (*CompleteReply, error) {
	if cc.c.firesOn(req.LeaseID) {
		switch cc.c.act {
		case actKillBeforeReport:
			slog.Info("chaos: kill before report", "worker", req.Worker, "unit", req.Unit)
			return nil, errChaosKilled
		case actStall:
			slog.Info("chaos: stall", "worker", req.Worker, "unit", req.Unit, "delay", cc.c.delay)
			if err := sleepCtx(ctx, cc.c.delay); err != nil {
				return nil, err
			}
		}
	}
	return cc.Coordination.Complete(ctx, req)
}

// worker builds the named worker of a fleet around coord, its control
// plane and day setup wrapped by the script c (nil: neither).
func (c *chaos) worker(name string, coord Coordination, store *checkpoint.Store, setup scan.StreamDaySetup) (*Worker, error) {
	if c != nil {
		coord = &chaosCoord{Coordination: coord, c: c}
		inner := setup
		setup = func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
			s, src, prepare, err := inner(ctx, day)
			return s, src, func(ctx context.Context, lo, hi int) error {
				if err := c.prepare(ctx, name); err != nil {
					return err
				}
				if prepare == nil {
					return nil
				}
				return prepare(ctx, lo, hi)
			}, err
		}
	}
	return NewWorker(WorkerConfig{Name: name, Coord: coord, Store: store, StreamSetup: setup})
}

// prepare is the script's part in readying one chunk: the slow disk and
// the kill between chunks.
func (c *chaos) prepare(ctx context.Context, name string) error {
	c.mu.Lock()
	scripted := c.lease != ""
	if scripted {
		c.prepares++
	}
	prepares := c.prepares
	c.mu.Unlock()
	switch {
	case !scripted:
	case c.act == actSlowDisk && prepares == 1:
		slog.Info("chaos: slow disk", "worker", name, "delay", c.delay)
		return sleepCtx(ctx, c.delay)
	case c.act == actKillBetweenChunks && prepares > c.afterChunks:
		slog.Info("chaos: kill between chunks", "worker", name, "flushed", c.afterChunks)
		return errChaosKilled
	}
	return nil
}

// buildTestWorld wires an ecosystem with registrars producing every
// deployment class (mirrors the scan package's test world).
func buildTestWorld(t *testing.T) (*ecosystem.Ecosystem, []scan.Target) {
	t.Helper()
	eco, err := ecosystem.New(ecosystem.Config{TLDs: []string{"com", "nl"}})
	if err != nil {
		t.Fatal(err)
	}
	mk := func(p registrar.Policy) *registrar.Registrar {
		if p.Roles == nil {
			p.Roles = map[string]registrar.Role{
				"com": {Kind: registrar.RoleRegistrar},
				"nl":  {Kind: registrar.RoleRegistrar},
			}
		}
		r, err := registrar.New(p, registrar.Deps{
			Registries: eco.Registries, Net: eco.Net, Clock: eco.Clock.Day,
		})
		if err != nil {
			t.Fatal(err)
		}
		r.CreateAccount("c@x.net")
		return r
	}
	good := mk(registrar.Policy{
		ID: "good", Name: "Good", NSHosts: []string{"ns1.good.net"},
		HostedDNSSEC: registrar.SupportDefault,
	})
	partial := mk(registrar.Policy{
		ID: "partial", Name: "Partial", NSHosts: []string{"ns1.partial.net"},
		HostedDNSSEC:  registrar.SupportDefault,
		PublishDSTLDs: map[string]bool{"nl": true},
	})
	plain := mk(registrar.Policy{
		ID: "plain", Name: "Plain", NSHosts: []string{"ns1.plain.net"},
	})
	var domains []string
	for _, d := range []struct {
		r      *registrar.Registrar
		domain string
	}{
		{good, "full1.com"}, {good, "full2.com"}, {good, "dutch.nl"},
		{partial, "half1.com"}, {partial, "half2.com"},
		{plain, "none1.com"}, {plain, "none2.com"}, {plain, "none3.com"},
		{plain, "victim.com"},
	} {
		if err := d.r.Purchase("c@x.net", d.domain, ""); err != nil {
			t.Fatalf("purchase %s: %v", d.domain, err)
		}
		domains = append(domains, d.domain)
	}
	garbage := &dnswire.DS{KeyTag: 7, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := eco.Registries["com"].SetDS("plain", "victim.com", []*dnswire.DS{garbage}); err != nil {
		t.Fatal(err)
	}
	domains = append(domains, "ghost.com")
	targets := make(targetList, len(domains))
	for i, d := range domains {
		targets[i] = scan.Target{Domain: d, TLD: d[strings.LastIndexByte(d, '.')+1:]}
	}
	return eco, targets
}

// targetList is an in-memory scan.TargetSource.
type targetList []scan.Target

func (l targetList) Len() int                      { return len(l) }
func (l targetList) Target(i int) (string, string) { return l[i].Domain, l[i].TLD }

// testStreamSetup builds a StreamDaySetup over the fixed in-memory world:
// a cursor over the targets, with no per-chunk prepare work (the ecosystem
// is fully materialized already).
func testStreamSetup(t *testing.T, eco *ecosystem.Ecosystem, targets []scan.Target) scan.StreamDaySetup {
	return func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		s, err := scan.New(scan.Config{
			Exchange: eco.Net,
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
		return s, targetList(targets), nil, nil
	}
}

// referenceArchive runs an uninterrupted single-process ResumableSweep of
// the plan and returns its archive bytes — the byte-identity oracle.
func referenceArchive(t *testing.T, eco *ecosystem.Ecosystem, targets []scan.Target, days []simtime.Day, shards int) []byte {
	t.Helper()
	rs := &scan.ResumableSweep{Shards: shards, StreamSetup: testStreamSetup(t, eco, targets)}
	var buf bytes.Buffer
	err := rs.RunStream(context.Background(), days, func(_ simtime.Day, sw *dataset.SpillWriter) error {
		return sw.WriteSectionTo(&buf)
	})
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// chaosEnv is one prepared distributed-sweep scenario.
type chaosEnv struct {
	eco     *ecosystem.Ecosystem
	targets []scan.Target
	days    []simtime.Day
	plan    Plan
	store   *checkpoint.Store
	want    []byte
}

// newChaosEnv builds the world, the oracle archive, and a plan whose chunk
// size is left at the default — far above the shard size here, so every
// shard is one chunk.
func newChaosEnv(t *testing.T, shards int) *chaosEnv {
	t.Helper()
	eco, targets := buildTestWorld(t)
	days := []simtime.Day{eco.Clock.Day(), eco.Clock.Day() + 1}
	st, err := checkpoint.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return &chaosEnv{
		eco: eco, targets: targets, days: days,
		plan:  Plan{Fingerprint: "chaos-drill-v1", Days: days, Shards: shards},
		store: st,
		want:  referenceArchive(t, eco, targets, days, shards),
	}
}

// newChunkedEnv is newChaosEnv with shards cut into several chunks.
func newChunkedEnv(t *testing.T, shards, chunk int) *chaosEnv {
	t.Helper()
	env := newChaosEnv(t, shards)
	env.plan.Fingerprint = fmt.Sprintf("chunk-drill-v1 chunk=%d", chunk)
	env.plan.Chunk = chunk
	return env
}

// sectionsTo is the sink that writes each merged day's section to buf.
func sectionsTo(buf *bytes.Buffer) scan.DaySink {
	return func(_ simtime.Day, sw *dataset.SpillWriter) error { return sw.WriteSectionTo(buf) }
}

// fleet runs a coordinator over the scenario's plan and store with one
// worker per script (nil: a worker nothing happens to), as RunLocal does.
func (env *chaosEnv) fleet(t *testing.T, ttl time.Duration, scripts map[string]*chaos, sink scan.DaySink) (*Result, error) {
	t.Helper()
	coord, err := NewCoordinator(CoordinatorConfig{Plan: env.plan, Store: env.store, LeaseTTL: ttl})
	if err != nil {
		return nil, err
	}
	defer coord.Close()
	names := make([]string, 0, len(scripts))
	for name := range scripts {
		names = append(names, name)
	}
	sort.Strings(names)
	var workers []*Worker
	for _, name := range names {
		w, err := scripts[name].worker(name, coord, env.store, testStreamSetup(t, env.eco, env.targets))
		if err != nil {
			t.Fatal(err)
		}
		workers = append(workers, w)
	}
	return runFleet(context.Background(), coord, workers, sink)
}

// run executes a fleet with the given worker scripts and asserts the
// merged archive is byte-identical to the oracle.
func (env *chaosEnv) run(t *testing.T, ttl time.Duration, scripts map[string]*chaos) *Result {
	t.Helper()
	var got bytes.Buffer
	res, err := env.fleet(t, ttl, scripts, sectionsTo(&got))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.want, got.Bytes()) {
		t.Errorf("distributed archive differs from uninterrupted single-process sweep:\n--- want\n%s\n--- got\n%s",
			env.want, got.String())
	}
	return res
}

func TestRunLocalCleanByteIdentical(t *testing.T) {
	env := newChaosEnv(t, 3)
	res := env.run(t, 10*time.Second, map[string]*chaos{"w1": nil, "w2": nil})
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("worker errors in clean run: %v", res.WorkerErrs)
	}
	s := res.Stats
	if s.Done != env.plan.Units() || s.Releases != 0 || s.Duplicates != 0 {
		t.Fatalf("clean-run stats: %+v", s)
	}
	// Per-worker attribution covers the whole sweep.
	total := 0
	for _, h := range res.HealthByWorker {
		total += h.Targets
	}
	if want := len(env.targets) * len(env.days); total != want {
		t.Fatalf("per-worker targets %d, want %d", total, want)
	}
}

func TestRunLocalWorkerKilledMidShard(t *testing.T) {
	env := newChaosEnv(t, 3)
	// w1 is SIGKILLed on its first claim after the scan, before it reports:
	// only its owner-tagged chunk file exists, which w2 must not trust and
	// no manifest names. Recovery is pure lease expiry.
	res := env.run(t, 300*time.Millisecond, map[string]*chaos{
		"w1": {claim: 1, act: actKillBeforeReport},
		"w2": nil,
	})
	if !errors.Is(res.WorkerErrs["w1"], errChaosKilled) {
		t.Fatalf("w1 error: %v", res.WorkerErrs["w1"])
	}
	if res.Stats.Releases == 0 {
		t.Fatalf("killed worker's lease never expired: %+v", res.Stats)
	}
}

func TestRunLocalStragglerDuplicate(t *testing.T) {
	env := newChaosEnv(t, 3)
	// w1 stalls (no heartbeats) for far longer than the TTL on its first
	// claim, loses the unit to w2, then finishes anyway: a duplicate
	// completion the coordinator must settle by checksum, idempotently.
	res := env.run(t, 200*time.Millisecond, map[string]*chaos{
		"w1": {claim: 1, act: actStall, delay: 800 * time.Millisecond},
		"w2": nil,
	})
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("worker errors: %v", res.WorkerErrs)
	}
	if res.Stats.Releases == 0 || res.Stats.Duplicates == 0 {
		t.Fatalf("straggler not re-leased+deduplicated: %+v", res.Stats)
	}
	if res.Stats.Divergent != 0 {
		t.Fatalf("identical straggler bytes counted divergent: %+v", res.Stats)
	}
}

func TestRunLocalSlowDiskKeepsLease(t *testing.T) {
	env := newChaosEnv(t, 3)
	// w1's disk is slow — well past the TTL — but its heartbeats keep
	// arriving, so the lease must never be stolen.
	res := env.run(t, 200*time.Millisecond, map[string]*chaos{
		"w1": {claim: 1, act: actSlowDisk, delay: 700 * time.Millisecond},
		"w2": nil,
	})
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("worker errors: %v", res.WorkerErrs)
	}
	if res.Stats.Releases != 0 || res.Stats.Duplicates != 0 {
		t.Fatalf("heartbeating slow worker lost its lease: %+v", res.Stats)
	}
}

func TestRunLocalCoordinatorRestartResumes(t *testing.T) {
	env := newChaosEnv(t, 3)
	// Phase 1: every worker dies on its second claim, after its scan and
	// before its report, so the sweep halts partway with durable but
	// unreported chunks and an unfinished plan. RunLocal must fail, leaving
	// recoverable state.
	res, err := env.fleet(t, 200*time.Millisecond, map[string]*chaos{
		"w1": {claim: 2, act: actKillBeforeReport},
		"w2": {claim: 2, act: actKillBeforeReport},
	}, nil)
	if err == nil {
		t.Fatal("phase 1 succeeded despite every worker dying")
	}
	if res == nil || res.Stats.Done == 0 || res.Stats.Done == env.plan.Units() {
		t.Fatalf("phase 1 should end partway: %+v", res)
	}

	// Phase 2: a fresh coordinator process over the same directory adopts
	// the completed units and finishes with fresh workers.
	res2 := env.run(t, 200*time.Millisecond, map[string]*chaos{"w3": nil})
	if res2.Stats.Recovered == 0 {
		t.Fatalf("restart adopted nothing: %+v", res2.Stats)
	}
	if res2.Stats.Recovered != res.Stats.Done {
		t.Fatalf("recovered %d units, phase 1 completed %d", res2.Stats.Recovered, res.Stats.Done)
	}
}

func TestRunLocalMoreShardsThanTargets(t *testing.T) {
	// Shard count above the target count: ShardBounds clamps, so the tail
	// units are legitimately empty. They must round-trip as empty archives
	// and contribute nothing to the merge.
	env := newChaosEnv(t, 16)
	res := env.run(t, 10*time.Second, map[string]*chaos{"w1": nil, "w2": nil})
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("worker errors: %v", res.WorkerErrs)
	}
	if res.Stats.Done != env.plan.Units() {
		t.Fatalf("done %d units, want %d", res.Stats.Done, env.plan.Units())
	}
}

func TestRunLocalChunkedCleanByteIdentical(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	res := env.run(t, 10*time.Second, map[string]*chaos{"w1": nil, "w2": nil})
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("worker errors in clean run: %v", res.WorkerErrs)
	}
	if res.Stats.Done != env.plan.Units() {
		t.Fatalf("done %d units, want %d", res.Stats.Done, env.plan.Units())
	}
	// Per-worker attribution still covers the whole sweep under chunking.
	total := 0
	for _, h := range res.HealthByWorker {
		total += h.Targets
	}
	if want := len(env.targets) * len(env.days); total != want {
		t.Fatalf("per-worker targets %d, want %d", total, want)
	}
}

func TestRunLocalChunkedKillBetweenChunksResumes(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	logged := logtest.Capture(t)

	// Phase 1: the only worker is SIGKILLed after durably flushing one
	// chunk of its first unit. The sweep halts with a partial shard on disk.
	res, err := env.fleet(t, 200*time.Millisecond, map[string]*chaos{
		"w1": {claim: 1, act: actKillBetweenChunks, afterChunks: 1},
	}, nil)
	if err == nil {
		t.Fatal("phase 1 succeeded despite its only worker dying")
	}
	if !errors.Is(res.WorkerErrs["w1"], errChaosKilled) {
		t.Fatalf("w1 error: %v", res.WorkerErrs["w1"])
	}
	if len(logged.Records("chaos: kill between chunks")) == 0 {
		t.Fatal("kill-between-chunks never fired")
	}

	// Phase 2: the same worker restarts over the same directory. Its first
	// re-claimed unit must reuse the flushed chunk by checksum instead of
	// re-scanning it, and the finished archive must be byte-identical.
	res2 := env.run(t, 200*time.Millisecond, map[string]*chaos{"w1": nil})
	if len(res2.WorkerErrs) != 0 {
		t.Fatalf("phase 2 worker errors: %v", res2.WorkerErrs)
	}
	reused := logged.Records("worker: reusing chunk")
	if len(reused) == 0 {
		t.Fatal("restarted worker re-scanned its flushed chunk instead of reusing it")
	}
	if r := reused[0]; r.Attrs["worker"] != "w1" || r.Attrs["chunk"] != "0" || r.Attrs["day"] == "" || r.Attrs["shard"] == "" {
		t.Errorf("chunk reuse record does not locate the chunk: %+v", r)
	}
}

func TestRunLocalChunkedOwnerTagIsolation(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	logged := logtest.Capture(t)

	// Phase 1: w1 dies after flushing one chunk.
	_, err := env.fleet(t, 200*time.Millisecond, map[string]*chaos{
		"w1": {claim: 1, act: actKillBetweenChunks, afterChunks: 1},
	}, nil)
	if err == nil {
		t.Fatal("phase 1 succeeded despite its only worker dying")
	}

	// Phase 2: a DIFFERENT worker takes over. w1's chunks are owner-tagged
	// (another vantage point may legitimately measure differently), so w2
	// must re-scan from scratch — and still merge byte-identical.
	res := env.run(t, 200*time.Millisecond, map[string]*chaos{"w2": nil})
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("phase 2 worker errors: %v", res.WorkerErrs)
	}
	if len(logged.Records("worker: reusing chunk")) != 0 {
		t.Fatal("w2 reused another worker's owner-tagged chunks")
	}
}
