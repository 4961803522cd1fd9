package main

// The api section benchmarks the always-on observatory daemon end to end
// through its handler stack (admission gate → deadline → query plane):
// read throughput and tail latency while the tailer ingests new archive
// sections concurrently, then the shed behavior of a deliberately tiny
// admission gate under flood. Results land in BENCH_api.json.

import (
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

	"securepki.org/registrarsec/internal/apiserv"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

type apiBenchConfig struct {
	Days          int
	DomainsPerDay int
	ReadWorkers   int
	Requests      int
	OutPath       string
}

// apiBaseline is the BENCH_api.json schema.
type apiBaseline struct {
	Schema        string `json:"schema"`
	Days          int    `json:"days"`
	DomainsPerDay int    `json:"domains_per_day"`
	Domains       int    `json:"domains"`
	ReadWorkers   int    `json:"read_workers"`
	Requests      int    `json:"requests"`

	// Steady-state reads with one section ingested concurrently mid-run.
	ReadQPS     float64 `json:"read_qps"`
	P50MicrosRT float64 `json:"p50_us"`
	P99MicrosRT float64 `json:"p99_us"`
	IngestedMid bool    `json:"ingested_during_reads"`

	// Flood against a MaxInFlight=2 gate: shed rate and survivor latency.
	OverloadRequests int     `json:"overload_requests"`
	OverloadShedRate float64 `json:"overload_shed_rate"`
	OverloadP99Us    float64 `json:"overload_p99_us"`
}

const apiBaselineSchema = "regsec-bench-api/1"

// apiSnap generates one deterministic synthetic scan day (the same shape
// the daemon's own tests use: three TLDs, a handful of operators, DNSSEC
// state varying by index and day).
func apiSnap(day simtime.Day, n int) *dataset.Snapshot {
	snap := &dataset.Snapshot{Day: day}
	tlds := []string{"com", "net", "org"}
	ops := []string{"alpha-dns", "beta-dns", "gamma-dns", "delta-dns", "epsilon-dns"}
	for i := 0; i < n; i++ {
		r := dataset.Record{
			Domain:   fmt.Sprintf("d%06d.%s", i, tlds[i%3]),
			TLD:      tlds[i%3],
			Operator: ops[i%len(ops)],
			NSHosts:  []string{"ns1." + ops[i%len(ops)] + ".example"},
		}
		r.HasDNSKEY = i%2 == 0
		r.HasRRSIG = r.HasDNSKEY
		r.HasDS = r.HasDNSKEY && (i%4 == 0 || int(day)%100 > i%100)
		r.ChainValid = r.HasDS && i%8 != 4
		snap.Records = append(snap.Records, r)
	}
	snap.Canonicalize()
	return snap
}

func appendAPISection(path string, snap *dataset.Snapshot) error {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	if err := snap.WriteArchiveSection(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// percentile returns the p-th percentile of sorted durations, in µs.
func percentileUs(sorted []time.Duration, p float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return float64(sorted[i].Nanoseconds()) / 1e3
}

func apiStatus(h http.Handler) (apiserv.Status, bool) {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/status", nil))
	var st apiserv.Status
	if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil {
		return st, false
	}
	return st, true
}

func waitSections(h http.Handler, want int, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if st, ok := apiStatus(h); ok && st.Sections >= want && st.Ready {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

func runAPIBench(cfg apiBenchConfig) int {
	dir, err := os.MkdirTemp("", "regsec-bench-api-")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	archive := filepath.Join(dir, "scans.tsv")
	world := filepath.Join(dir, "world.colstore")

	// All days but the last are on disk before the daemon starts; the last
	// is appended mid-benchmark so reads race a real ingest+publish.
	days := make([]simtime.Day, cfg.Days)
	for i := range days {
		days[i] = simtime.Day(100 + 30*i)
	}
	for _, d := range days[:len(days)-1] {
		if err := appendAPISection(archive, apiSnap(d, cfg.DomainsPerDay)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}

	fmt.Fprintf(os.Stderr, "api bench: %d day(s) × %d domains, %d reader(s), %d requests...\n",
		cfg.Days, cfg.DomainsPerDay, cfg.ReadWorkers, cfg.Requests)
	s := apiserv.New(apiserv.Config{
		ArchivePath:  archive,
		WorldPath:    world,
		PollInterval: 5 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	h := s.Handler()
	if !waitSections(h, cfg.Days-1, 30*time.Second) {
		fmt.Fprintln(os.Stderr, "api bench: daemon never became ready")
		return 1
	}

	// Steady-state reads over a mixed endpoint set, with the final section
	// appended once the run is underway.
	paths := []string{
		"/v1/table1",
		"/v1/operators?class=dnskey",
		"/v1/series?operator=alpha-dns&from=2015-04-11&to=2016-12-31&step=30",
		"/v1/dsgap",
	}
	var next atomic.Int64
	lat := make([][]time.Duration, cfg.ReadWorkers)
	ingested := make(chan bool, 1)
	start := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < cfg.ReadWorkers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				i := next.Add(1) - 1
				if i >= int64(cfg.Requests) {
					return
				}
				if i == int64(cfg.Requests)/4 {
					// A quarter of the way in: grow the archive under load.
					go func() {
						err := appendAPISection(archive, apiSnap(days[len(days)-1], cfg.DomainsPerDay))
						ingested <- err == nil && waitSections(h, cfg.Days, 30*time.Second)
					}()
				}
				rec := httptest.NewRecorder()
				t0 := time.Now()
				h.ServeHTTP(rec, httptest.NewRequest("GET", paths[i%int64(len(paths))], nil))
				if rec.Code != http.StatusOK {
					continue
				}
				lat[w] = append(lat[w], time.Since(t0))
			}
		}(w)
	}
	wg.Wait()
	elapsed := time.Since(start)
	ingestedMid := <-ingested

	var all []time.Duration
	for _, l := range lat {
		all = append(all, l...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	qps := float64(len(all)) / elapsed.Seconds()
	st, _ := apiStatus(h)
	cancel()

	// Overload: a second daemon over the same (already committed) world
	// with a two-slot gate, flooded with the heaviest query in the set.
	over := apiserv.New(apiserv.Config{
		ArchivePath:  archive,
		WorldPath:    world,
		PollInterval: 5 * time.Millisecond,
		MaxInFlight:  2,
		MaxQueue:     2,
		QueueWait:    time.Millisecond,
	})
	octx, ocancel := context.WithCancel(context.Background())
	defer ocancel()
	go over.Run(octx)
	oh := over.Handler()
	if !waitSections(oh, cfg.Days, 30*time.Second) {
		fmt.Fprintln(os.Stderr, "api bench: overload daemon never became ready")
		return 1
	}
	overReqs := cfg.Requests / 2
	var onext atomic.Int64
	var shed atomic.Int64
	olat := make([][]time.Duration, 4*cfg.ReadWorkers)
	for w := range olat {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if onext.Add(1) > int64(overReqs) {
					return
				}
				rec := httptest.NewRecorder()
				t0 := time.Now()
				oh.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/series?operator=alpha-dns&step=1", nil))
				switch rec.Code {
				case http.StatusOK:
					olat[w] = append(olat[w], time.Since(t0))
				case http.StatusTooManyRequests:
					shed.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	var oall []time.Duration
	for _, l := range olat {
		oall = append(oall, l...)
	}
	sort.Slice(oall, func(i, j int) bool { return oall[i] < oall[j] })
	shedRate := float64(shed.Load()) / float64(overReqs)

	baseline := &apiBaseline{
		Schema:           apiBaselineSchema,
		Days:             cfg.Days,
		DomainsPerDay:    cfg.DomainsPerDay,
		Domains:          st.Domains,
		ReadWorkers:      cfg.ReadWorkers,
		Requests:         len(all),
		ReadQPS:          qps,
		P50MicrosRT:      percentileUs(all, 0.50),
		P99MicrosRT:      percentileUs(all, 0.99),
		IngestedMid:      ingestedMid,
		OverloadRequests: overReqs,
		OverloadShedRate: shedRate,
		OverloadP99Us:    percentileUs(oall, 0.99),
	}
	if err := writeBaseline(cfg.OutPath, baseline); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "api: %.0f reads/s (p50 %.0fµs, p99 %.0fµs) over %d domains, ingest-under-load %v; overload shed %.0f%% (p99 %.0fµs)\n",
		qps, baseline.P50MicrosRT, baseline.P99MicrosRT, st.Domains, ingestedMid, 100*shedRate, baseline.OverloadP99Us)

	if !ingestedMid {
		fmt.Fprintln(os.Stderr, "api bench: concurrent ingest did not complete during the read phase")
		return 1
	}
	return 0
}
