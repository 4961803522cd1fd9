package dsweep

// The chaos harness: a real coordinator + in-process workers sweeping a
// real in-memory signed-DNS world, with scripted kills, stalls, and slow
// disks. Every test's acceptance bar is the same: whatever chaos is
// injected, the merged archive must be byte-identical to an uninterrupted
// single-process ResumableSweep of the same plan — and a worker killed
// between chunks must resume its shard from the durable chunk files
// instead of from scratch.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// buildTestWorld wires an ecosystem with registrars producing every
// deployment class (mirrors the scan package's test world).
func buildTestWorld(t *testing.T) (*dnstest.Ecosystem, []scan.Target) {
	t.Helper()
	eco, err := dnstest.NewEcosystem(dnstest.EcosystemConfig{TLDs: []string{"com", "nl"}})
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
	return eco, scan.TargetsFromDomains(domains)
}

// testStreamSetup builds a StreamDaySetup over the fixed in-memory world:
// a cursor over the targets, with no per-chunk prepare work (the ecosystem
// is fully materialized already).
func testStreamSetup(t *testing.T, eco *dnstest.Ecosystem, targets []scan.Target) scan.StreamDaySetup {
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
		return s, scan.SliceTargets(targets), nil, nil
	}
}

// referenceArchive runs an uninterrupted single-process ResumableSweep of
// the plan and returns its archive bytes — the byte-identity oracle.
func referenceArchive(t *testing.T, eco *dnstest.Ecosystem, targets []scan.Target, days []simtime.Day, shards int) []byte {
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

// eventLog collects progress lines for assertions while echoing to the
// test log.
type eventLog struct {
	t  *testing.T
	mu sync.Mutex
	ls []string
}

func (el *eventLog) logf(format string, args ...any) {
	line := fmt.Sprintf(format, args...)
	el.mu.Lock()
	el.ls = append(el.ls, line)
	el.mu.Unlock()
	el.t.Log(line)
}

func (el *eventLog) count(substr string) int {
	el.mu.Lock()
	defer el.mu.Unlock()
	n := 0
	for _, l := range el.ls {
		if strings.Contains(l, substr) {
			n++
		}
	}
	return n
}

// chaosEnv is one prepared distributed-sweep scenario.
type chaosEnv struct {
	eco     *dnstest.Ecosystem
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

// run executes RunLocal with the given worker scripts and asserts the
// merged archive is byte-identical to the oracle.
func (env *chaosEnv) run(t *testing.T, ttl time.Duration, scripts map[string]*Script, logf func(string, ...any)) *Result {
	t.Helper()
	var workers []WorkerSpec
	for _, name := range sortedKeys(scripts) {
		workers = append(workers, WorkerSpec{
			Name:        name,
			StreamSetup: testStreamSetup(t, env.eco, env.targets),
			Chaos:       scripts[name],
		})
	}
	var got bytes.Buffer
	res, err := RunLocal(context.Background(), LocalConfig{
		Plan: env.plan, Store: env.store, LeaseTTL: ttl, Workers: workers,
		OnEvent: logf,
	}, sectionsTo(&got))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(env.want, got.Bytes()) {
		t.Errorf("distributed archive differs from uninterrupted single-process sweep:\n--- want\n%s\n--- got\n%s",
			env.want, got.String())
	}
	return res
}

// sortedKeys returns map keys in deterministic order.
func sortedKeys(m map[string]*Script) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := range keys {
		for j := i + 1; j < len(keys); j++ {
			if keys[j] < keys[i] {
				keys[i], keys[j] = keys[j], keys[i]
			}
		}
	}
	return keys
}

func TestRunLocalCleanByteIdentical(t *testing.T) {
	env := newChaosEnv(t, 3)
	res := env.run(t, 10*time.Second, map[string]*Script{"w1": nil, "w2": nil}, t.Logf)
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
	res := env.run(t, 300*time.Millisecond, map[string]*Script{
		"w1": NewScript(Event{Claim: 1, Act: ActKillBeforeReport}),
		"w2": nil,
	}, t.Logf)
	if !errors.Is(res.WorkerErrs["w1"], ErrChaosKilled) {
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
	res := env.run(t, 200*time.Millisecond, map[string]*Script{
		"w1": NewScript(Event{Claim: 1, Act: ActStall, Delay: 800 * time.Millisecond}),
		"w2": nil,
	}, t.Logf)
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
	res := env.run(t, 200*time.Millisecond, map[string]*Script{
		"w1": NewScript(Event{Claim: 1, Act: ActSlowDisk, Delay: 700 * time.Millisecond}),
		"w2": nil,
	}, t.Logf)
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
	res, err := RunLocal(context.Background(), LocalConfig{
		Plan: env.plan, Store: env.store, LeaseTTL: 200 * time.Millisecond,
		Workers: []WorkerSpec{
			{Name: "w1", StreamSetup: testStreamSetup(t, env.eco, env.targets), Chaos: NewScript(Event{Claim: 2, Act: ActKillBeforeReport})},
			{Name: "w2", StreamSetup: testStreamSetup(t, env.eco, env.targets), Chaos: NewScript(Event{Claim: 2, Act: ActKillBeforeReport})},
		},
		OnEvent: t.Logf,
	}, nil)
	if err == nil {
		t.Fatal("phase 1 succeeded despite every worker dying")
	}
	if res == nil || res.Stats.Done == 0 || res.Stats.Done == env.plan.Units() {
		t.Fatalf("phase 1 should end partway: %+v", res)
	}

	// Phase 2: a fresh coordinator process over the same directory adopts
	// the completed units and finishes with fresh workers.
	res2 := env.run(t, 200*time.Millisecond, map[string]*Script{"w3": nil}, t.Logf)
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
	res := env.run(t, 10*time.Second, map[string]*Script{"w1": nil, "w2": nil}, t.Logf)
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("worker errors: %v", res.WorkerErrs)
	}
	if res.Stats.Done != env.plan.Units() {
		t.Fatalf("done %d units, want %d", res.Stats.Done, env.plan.Units())
	}
}

func TestRunLocalChunkedCleanByteIdentical(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	el := &eventLog{t: t}
	res := env.run(t, 10*time.Second, map[string]*Script{"w1": nil, "w2": nil}, el.logf)
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
	el := &eventLog{t: t}

	// Phase 1: the only worker is SIGKILLed after durably flushing one
	// chunk of its first unit. The sweep halts with a partial shard on disk.
	res, err := RunLocal(context.Background(), LocalConfig{
		Plan: env.plan, Store: env.store, LeaseTTL: 200 * time.Millisecond,
		Workers: []WorkerSpec{{
			Name:        "w1",
			StreamSetup: testStreamSetup(t, env.eco, env.targets),
			Chaos:       NewScript(Event{Claim: 1, Act: ActKillBetweenChunks, AfterChunks: 1}),
		}},
		OnEvent: el.logf,
	}, nil)
	if err == nil {
		t.Fatal("phase 1 succeeded despite its only worker dying")
	}
	if !errors.Is(res.WorkerErrs["w1"], ErrChaosKilled) {
		t.Fatalf("w1 error: %v", res.WorkerErrs["w1"])
	}
	if el.count("chaos kill after 1 flushed chunks") == 0 {
		t.Fatal("kill-between-chunks never fired")
	}

	// Phase 2: the same worker restarts over the same directory. Its first
	// re-claimed unit must reuse the flushed chunk by checksum instead of
	// re-scanning it, and the finished archive must be byte-identical.
	res2 := env.run(t, 200*time.Millisecond, map[string]*Script{"w1": nil}, el.logf)
	if len(res2.WorkerErrs) != 0 {
		t.Fatalf("phase 2 worker errors: %v", res2.WorkerErrs)
	}
	if el.count("reusing chunk") == 0 {
		t.Fatal("restarted worker re-scanned its flushed chunk instead of reusing it")
	}
}

func TestRunLocalChunkedOwnerTagIsolation(t *testing.T) {
	env := newChunkedEnv(t, 3, 2)
	el := &eventLog{t: t}

	// Phase 1: w1 dies after flushing one chunk.
	_, err := RunLocal(context.Background(), LocalConfig{
		Plan: env.plan, Store: env.store, LeaseTTL: 200 * time.Millisecond,
		Workers: []WorkerSpec{{
			Name:        "w1",
			StreamSetup: testStreamSetup(t, env.eco, env.targets),
			Chaos:       NewScript(Event{Claim: 1, Act: ActKillBetweenChunks, AfterChunks: 1}),
		}},
		OnEvent: el.logf,
	}, nil)
	if err == nil {
		t.Fatal("phase 1 succeeded despite its only worker dying")
	}

	// Phase 2: a DIFFERENT worker takes over. w1's chunks are owner-tagged
	// (another vantage point may legitimately measure differently), so w2
	// must re-scan from scratch — and still merge byte-identical.
	res := env.run(t, 200*time.Millisecond, map[string]*Script{"w2": nil}, el.logf)
	if len(res.WorkerErrs) != 0 {
		t.Fatalf("phase 2 worker errors: %v", res.WorkerErrs)
	}
	if el.count("reusing chunk") != 0 {
		t.Fatal("w2 reused another worker's owner-tagged chunks")
	}
}
