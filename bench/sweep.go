package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// sweepDays spreads n scan days evenly over the last span month-ends of the
// study (0 = the whole window), ending on its last day, in the ascending
// order the archive writer requires.
func sweepDays(n, span int) []simtime.Day {
	if span <= 0 {
		span = 21
	}
	all := monthEnds(max(span, n))
	days := make([]simtime.Day, n)
	for i := range days {
		days[i] = all[len(all)-1-(n-1-i)*(len(all)-1)/max(n-1, 1)]
	}
	return days
}

// monthEnds lists the last n month-ends of the study window; 21 of them is
// the paper's whole window (2015-04-30 .. 2016-12-31).
func monthEnds(n int) []simtime.Day {
	out := make([]simtime.Day, n)
	for i := range out {
		// Day 0 of the month after is the last day of the month meant.
		out[i] = simtime.Date(2017, time.Month(1-(n-1-i)), 0)
	}
	return out
}

// sweepResult is what one streaming sweep measured.
type sweepResult struct {
	Archive      string
	ArchiveBytes int64
	SHA256       string
	Days         []simtime.Day
	Source       tldsim.DomainSource // the sampled targets, in cursor order
	Records      int                 // appended to the archive
	Failed       int                 // of them, placeholders for targets not measured (set by the oracle)
	WithDNSKEY   int                 // of them, measured with a DNSKEY (set by the oracle)
	WallS        float64             // RunStream through ArchiveWriter.Close
	SampleDrawMs float64

	Health     scan.SweepHealth // merged over days
	Chunks     int
	SpillRuns  int
	SpillBytes int64
	MergeS     float64 // Σ ArchiveWriter.Section
	CkptFiles  int
	CkptBytes  int64
}

// tracedStack is the outermost exchange layer of a traced sweep: one span
// per Stack.Exchange call, whose id travels down the middleware in the
// context so the transport call it causes can name it as its parent.
type tracedStack struct {
	inner exchange.Exchanger
	tr    *tracer
	chunk *atomic.Int64 // packed: span id of the chunk scan in flight
	group *atomic.Int64
}

func (t tracedStack) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	id := t.tr.begin("exchange.stack", int32(t.chunk.Load()), t.group.Load())
	resp, err := t.inner.Exchange(withSpan(ctx, id), server, q)
	t.tr.end(id)
	return resp, err
}

// tracedTransport is the innermost wrapper of a traced sweep, around the
// in-memory network itself.
type tracedTransport struct {
	inner exchange.Exchanger
	tr    *tracer
	group *atomic.Int64
}

func (t tracedTransport) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	id := t.tr.begin("dnsserver.memnet", spanFrom(ctx), t.group.Load())
	resp, err := t.inner.Exchange(ctx, server, q)
	t.tr.end(id)
	return resp, err
}

// lossyRules makes the operators of a frac share of the sampled targets lose
// a loss share of their packets: operators in seeded order, each taken while
// it fits, until the share is reached. tldsim.LossyOperatorsSource draws a
// share of the operator names instead, and the targets behind them then run
// from a few percent to most of the sample with the seed (operator sizes
// follow a power law) — a different workload per seed, not one workload.
func lossyRules(src tldsim.DomainSource, frac, loss float64, seed int64) []faultnet.Rule {
	behind := make(map[string]int)
	for i := 0; i < src.Len(); i++ {
		behind[src.DomainAt(i).Operator]++
	}
	operators := make([]string, 0, len(behind))
	for op := range behind {
		operators = append(operators, op)
	}
	sort.Strings(operators)
	rand.New(rand.NewSource(seed)).Shuffle(len(operators), func(i, j int) {
		operators[i], operators[j] = operators[j], operators[i]
	})
	want, got := int(frac*float64(src.Len())), 0
	var rules []faultnet.Rule
	for _, op := range operators {
		if got+behind[op] <= want {
			got += behind[op]
			rules = append(rules, faultnet.Rule{Pattern: tldsim.NSHostOf(op), Loss: loss})
		}
	}
	return rules
}

// sweepStage runs the streaming sweep exactly as regsec-scan -chunk does —
// cursor, per-chunk materialization, exchange stack, spill, k-way merge into
// a trailered archive — over a sample of the loaded world.
//
// dsweep.WorldSpec.BuildStreamWith hides the wiring the spans must wrap, so
// the scan.Config is assembled here, same fields in the same order. With a
// tracer, and only then, the stack's outermost Exchanger and the transport
// are wrapped; an untraced sweep runs the program's own objects untouched.
func sweepStage(ctx context.Context, p profile, world *tldsim.World, dir string, seed int64, tr *tracer, root int32) (*sweepResult, error) {
	res := &sweepResult{Archive: filepath.Join(dir, "sweep.tsv"), Days: sweepDays(p.Days, p.DaySpan)}
	res.Health.ByClass = make(map[scan.FailClass]int)

	t0 := time.Now()
	src := world.SampleSource(p.Targets, seed)
	res.SampleDrawMs = float64(time.Since(t0)) / 1e6
	res.Source = src

	spillDir := filepath.Join(dir, "spill")
	if err := os.MkdirAll(spillDir, 0o755); err != nil {
		return nil, err
	}
	var store *checkpoint.Store
	if p.Checkpoint {
		var err error
		if store, err = checkpoint.Open(filepath.Join(dir, "checkpoint")); err != nil {
			return nil, err
		}
	}

	var faults []faultnet.Rule
	if p.FaultFrac > 0 {
		faults = lossyRules(src, p.FaultFrac, p.FaultLoss, seed)
	}

	// chunkSpan is the scan.chunk span in flight (-1 between chunks); group
	// packs day and chunk number so every span of one chunk shares it.
	var chunkSpan, group atomic.Int64
	chunkSpan.Store(-1)
	closeChunk := func() {
		tr.end(int32(chunkSpan.Swap(-1)))
	}

	setup := func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		id := tr.begin("scan.day_setup", root, int64(day)<<16)
		defer tr.end(id)
		sm := tldsim.NewStreamMaterializer(day, src)
		clock := func() simtime.Day { return day }
		var mw []exchange.Middleware
		if len(faults) > 0 {
			mw = append(mw, faultnet.New(nil, seed, clock, faults...).Middleware())
		}
		var cacheOpts *exchange.CacheOptions
		if p.Cache {
			cacheOpts = &exchange.CacheOptions{}
		}
		var transport exchange.Exchanger = sm
		if tr != nil {
			transport = tracedTransport{inner: sm, tr: tr, group: &group}
		}
		scanner, err := scan.New(scan.Config{
			Exchange:    transport,
			Middleware:  mw,
			Dedup:       p.Dedup,
			Cache:       cacheOpts,
			TLDServers:  sm.TLDServers,
			Workers:     scanWorkers,
			Clock:       clock,
			Retry:       retry.Policy{MaxAttempts: 3},
			MaxResweeps: 2,
		})
		if err != nil {
			return nil, nil, nil, err
		}
		if tr != nil {
			st := scanner.Stack()
			st.Exchanger = tracedStack{inner: st.Exchanger, tr: tr, chunk: &chunkSpan, group: &group}
		}
		chunk := 0
		prepare := func(ctx context.Context, lo, hi int) error {
			closeChunk()
			// Each chunk's materialization signs with fresh keys, so answers
			// cached from the previous chunk must not outlive it.
			if p.Cache {
				scanner.Stack().FlushCache()
			}
			group.Store(int64(day)<<16 | int64(chunk))
			chunk++
			res.Chunks++
			id := tr.begin("tldsim.prepare", root, group.Load())
			err := sm.Prepare(ctx, lo, hi)
			tr.end(id)
			chunkSpan.Store(int64(tr.begin("scan.chunk", root, group.Load())))
			return err
		}
		return scanner, src, prepare, nil
	}

	start := time.Now()
	aw, err := dataset.NewArchiveWriter(res.Archive)
	if err != nil {
		return nil, err
	}
	rs := &scan.ResumableSweep{
		Checkpoint:  store,
		Fingerprint: fmt.Sprintf("bench %s seed=%d targets=%d chunk=%d", p.Name, seed, p.Targets, p.Chunk),
		StreamSetup: setup,
		Shards:      1,
		Chunk:       p.Chunk,
		Spill:       dataset.SpillOptions{Dir: spillDir, MemBudget: p.SpillBudget},
		OnDayHealth: func(day simtime.Day, h *scan.SweepHealth) {
			closeChunk()
			res.Health.Merge(h)
		},
	}
	err = rs.RunStream(ctx, res.Days, func(day simtime.Day, sw *dataset.SpillWriter) error {
		res.Records += sw.Len()
		res.SpillRuns += sw.Runs()
		res.SpillBytes += dirBytes(spillDir)
		id := tr.begin("dataset.section", root, int64(day)<<16)
		t0 := time.Now()
		err := aw.Section(sw)
		res.MergeS += time.Since(t0).Seconds()
		tr.end(id)
		return err
	})
	if err != nil {
		aw.Abort()
		return nil, err
	}
	if err := aw.Close(); err != nil {
		return nil, err
	}
	res.WallS = time.Since(start).Seconds()

	if store != nil {
		files, _ := filepath.Glob(filepath.Join(store.Dir(), "*-chunk-*.tsv"))
		res.CkptFiles = len(files)
		res.CkptBytes = dirBytes(store.Dir())
	}
	return res, hashArchive(res)
}

// dirBytes sums the sizes of the regular files directly inside dir.
func dirBytes(dir string) int64 {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return 0
	}
	var n int64
	for _, e := range entries {
		if info, err := e.Info(); err == nil && info.Mode().IsRegular() {
			n += info.Size()
		}
	}
	return n
}

func hashArchive(res *sweepResult) error {
	f, err := os.Open(res.Archive)
	if err != nil {
		return err
	}
	defer f.Close()
	h := sha256.New()
	if res.ArchiveBytes, err = io.Copy(h, f); err != nil {
		return err
	}
	res.SHA256 = hex.EncodeToString(h.Sum(nil))
	return nil
}
