package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/apiserv"
	"securepki.org/registrarsec/internal/dataset"
)

// observatoryPoll is the daemon's archive poll cadence, short so that a
// section's lag measures the commit (ingest, freeze, publish, save,
// watermark), not where in the poll cycle the append happened to land. The
// daemon's production default is 500 ms.
const observatoryPoll = time.Millisecond

// apiReaders is the read window's closed-loop client count: one per core.
const apiReaders = 2

// apiPaths is the read mix, round-robin: Table 1, the DNSKEY operator
// ranking, one Figure 4 series at a 30-day step, and the DS gap.
var apiPaths = []string{
	"/v1/table1",
	"/v1/operators?class=dnskey",
	"/v1/series?operator=ovh.net&step=30",
	"/v1/dsgap",
}

// observatory is a running apiserv daemon over the archive being appended.
type observatory struct {
	srv    *apiserv.Server
	h      http.Handler
	cancel context.CancelFunc
	done   chan struct{}
}

func startObservatory(ctx context.Context, cfg apiserv.Config) *observatory {
	o := &observatory{srv: apiserv.New(cfg), done: make(chan struct{})}
	o.h = o.srv.Handler()
	var runCtx context.Context
	runCtx, o.cancel = context.WithCancel(ctx)
	go func() {
		defer close(o.done)
		o.srv.Run(runCtx)
	}()
	return o
}

// stop cancels the daemon and waits until its components have returned.
func (o *observatory) stop() {
	o.cancel()
	<-o.done
}

func (o *observatory) get(path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	o.h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// waitSections blocks until /v1/status reports at least want ingested
// sections and ready — the moment a section becomes visible to readers.
func (o *observatory) waitSections(ctx context.Context, want int) error {
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		var st apiserv.Status
		if err := json.Unmarshal(o.get("/v1/status").Body.Bytes(), &st); err == nil && st.Sections >= want && st.Ready {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(100 * time.Microsecond):
		}
	}
	return fmt.Errorf("observatory: section %d never became visible", want)
}

// table1Oracle requires /v1/table1 to equal analysis.Overview over the given
// snapshot (the latest one the daemon has ingested), as JSON.
func (o *observatory) table1Oracle(snap *dataset.Snapshot) error {
	rec := o.get("/v1/table1")
	if rec.Code != http.StatusOK {
		return fmt.Errorf("ingest oracle: /v1/table1 answered %d", rec.Code)
	}
	var got struct {
		Day  string                 `json:"day"`
		TLDs []analysis.TLDOverview `json:"tlds"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &got); err != nil {
		return fmt.Errorf("ingest oracle: %w", err)
	}
	tlds := make([]string, 0, len(got.TLDs))
	for _, row := range got.TLDs {
		tlds = append(tlds, row.TLD)
	}
	want := analysis.Overview(snap, tlds)
	a, _ := json.Marshal(got.TLDs)
	b, _ := json.Marshal(want)
	if got.Day != snap.Day.String() || len(tlds) == 0 || !bytes.Equal(a, b) {
		return fmt.Errorf("ingest oracle: /v1/table1 (%s) %s != Overview of the %s snapshot %s", got.Day, a, snap.Day, b)
	}
	return nil
}

// observeResult is what the ingest and query stages measured.
type observeResult struct {
	LagMs          []float64 // per section: append complete → visible
	RestartReadyMs float64
	LagTotalS      float64 // Σ lags + restart
	Ingest         *stageMeter
	WorldBytes     int64

	Query    *stageMeter
	ReadWall float64
	OK       int
	Non200   int
	LatUs    []float64 // all 200-responses
	ByPathUs [][]float64
	Shed     uint64

	// OracleErrs are the table1 oracle's mismatches; the stages run on.
	OracleErrs []error
}

// appendSection appends one day section to the archive the daemon tails and
// makes it durable before the lag clock starts.
func appendSection(path string, snap *dataset.Snapshot) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := snap.WriteArchiveSection(f); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readWindow runs the closed-loop readers for d and folds their samples
// into res. Each request is one span of a traced run.
func readWindow(current func() *observatory, d time.Duration, res *observeResult, tr *tracer, root int32) {
	res.ByPathUs = make([][]float64, len(apiPaths))
	type sample struct {
		path int
		us   float64
	}
	perReader := make([][]sample, apiReaders)
	var non200 atomic.Int64
	var next atomic.Int64
	start := time.Now()
	deadline := start.Add(d)
	var wg sync.WaitGroup
	for r := 0; r < apiReaders; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := next.Add(1) - 1
				path := int(i % int64(len(apiPaths)))
				id := tr.begin("apiserv.request", root, i)
				t0 := time.Now()
				rec := current().get(apiPaths[path])
				lat := time.Since(t0)
				tr.end(id)
				if rec.Code != http.StatusOK {
					non200.Add(1)
					continue
				}
				perReader[r] = append(perReader[r], sample{path, float64(lat) / 1e3})
			}
		}(r)
	}
	wg.Wait()
	res.ReadWall = time.Since(start).Seconds()
	for _, samples := range perReader {
		for _, s := range samples {
			res.LatUs = append(res.LatUs, s.us)
			res.ByPathUs[s.path] = append(res.ByPathUs[s.path], s.us)
		}
	}
	res.OK = len(res.LatUs)
	res.Non200 = int(non200.Load())
}

// observeStages runs the ingest and query stages: the sweep's sections are
// appended one at a time to the archive a live apiserv daemon tails, each
// timed from durable append to visible; then (or, with ReadsDuringIngest,
// meanwhile) the readers run their window. The table1 oracle runs after the
// last section, and on both sides of a restart; the error returned is a
// failure to run, not a mismatch.
func observeStages(ctx context.Context, p profile, store *dataset.Store, dir string, traced bool, tr *tracer) (*observeResult, error) {
	res := &observeResult{}
	cfg := apiserv.Config{
		ArchivePath:  filepath.Join(dir, "observed.tsv"),
		WorldPath:    filepath.Join(dir, "observed.colstore"),
		PollInterval: observatoryPoll,
	}
	days := store.Days()
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })

	ingestRoot := tr.begin("ingest", -1, 0)
	res.Ingest = beginStage(traced)
	// cur is the daemon in service; the readers follow it across a restart.
	var cur atomic.Pointer[observatory]
	cur.Store(startObservatory(ctx, cfg))
	defer func() { cur.Load().stop() }()

	var readers sync.WaitGroup
	var readStart time.Time
	for k := range days {
		if p.ReadsDuringIngest && k > 0 {
			// Spread the remaining appends over the read window, so every
			// commit lands beside running reads. The wait is not lag.
			time.Sleep(time.Until(readStart.Add(time.Duration(k) * p.ReadWindow / time.Duration(len(days)))))
		}
		if err := appendSection(cfg.ArchivePath, store.Get(days[k])); err != nil {
			readers.Wait()
			return nil, err
		}
		id := tr.begin("apiserv.section_commit", ingestRoot, int64(k+1))
		t0 := time.Now()
		err := cur.Load().waitSections(ctx, k+1)
		res.LagMs = append(res.LagMs, float64(time.Since(t0))/1e6)
		tr.end(id)
		if err != nil {
			readers.Wait()
			return nil, err
		}
		if p.ReadsDuringIngest && k == 0 {
			// The read window opens once there is a world to read.
			queryRoot := tr.begin("query", -1, 0)
			res.Query = beginStage(traced)
			readStart = time.Now()
			readers.Add(1)
			go func() {
				defer readers.Done()
				readWindow(cur.Load, p.ReadWindow, res, tr, queryRoot)
				res.Query.finish()
				tr.end(queryRoot)
			}()
		}
		if p.RestartAfter == k+1 {
			if err := cur.Load().table1Oracle(store.Get(days[k])); err != nil {
				res.OracleErrs = append(res.OracleErrs, fmt.Errorf("before restart: %w", err))
			}
			// Readers stay on the stopped daemon's last world until the
			// fresh one has resumed; a query plane behind a balancer would.
			cur.Load().stop()
			id := tr.begin("apiserv.restart", ingestRoot, int64(k+1))
			t0 := time.Now()
			fresh := startObservatory(ctx, cfg)
			err := fresh.waitSections(ctx, k+1)
			res.RestartReadyMs = float64(time.Since(t0)) / 1e6
			tr.end(id)
			cur.Store(fresh)
			if err != nil {
				readers.Wait()
				return nil, err
			}
			if err := fresh.table1Oracle(store.Get(days[k])); err != nil {
				res.OracleErrs = append(res.OracleErrs, fmt.Errorf("after restart: %w", err))
			}
		}
	}
	for _, ms := range res.LagMs {
		res.LagTotalS += ms / 1e3
	}
	res.LagTotalS += res.RestartReadyMs / 1e3
	res.Ingest.finish()
	tr.end(ingestRoot)
	readers.Wait()

	o := cur.Load()
	if err := o.table1Oracle(store.Get(days[len(days)-1])); err != nil {
		res.OracleErrs = append(res.OracleErrs, err)
	}
	if info, err := os.Stat(cfg.WorldPath); err == nil {
		res.WorldBytes = info.Size()
	}

	if !p.ReadsDuringIngest {
		for _, path := range apiPaths { // warm the snapshot cache, untimed
			o.get(path)
		}
		queryRoot := tr.begin("query", -1, 0)
		res.Query = beginStage(traced)
		readWindow(cur.Load, p.ReadWindow, res, tr, queryRoot)
		res.Query.finish()
		tr.end(queryRoot)
	}
	_, res.Shed = o.srv.GateStats()
	return res, nil
}
