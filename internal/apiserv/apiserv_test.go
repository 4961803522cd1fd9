package apiserv

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// mkSnap builds a deterministic scan day: n domains spread over three
// TLDs and three operators, with DNSSEC state that varies by index and
// advances with the day (so later days differ from earlier ones).
func mkSnap(day simtime.Day, n int) *dataset.Snapshot {
	snap := &dataset.Snapshot{Day: day}
	tlds := []string{"com", "net", "org"}
	ops := []string{"alpha-dns", "beta-dns", "gamma-dns"}
	for i := 0; i < n; i++ {
		r := dataset.Record{
			Domain:   fmt.Sprintf("d%03d.%s", i, tlds[i%3]),
			TLD:      tlds[i%3],
			Operator: ops[i%len(ops)],
			NSHosts:  []string{"ns1." + ops[i%len(ops)] + ".example"},
		}
		if i%11 == 10 {
			r.Failed, r.FailReason = true, "timeout"
		} else {
			r.HasDNSKEY = i%2 == 0
			r.HasRRSIG = r.HasDNSKEY
			r.HasDS = r.HasDNSKEY && (i%4 == 0 || int(day)%100 > i%100)
			r.ChainValid = r.HasDS && i%8 != 4
		}
		snap.Records = append(snap.Records, r)
	}
	snap.Canonicalize()
	return snap
}

// newTestServer builds a Server over dir with fast test cadences. Nothing
// is started; tests drive resumeOnce/pollOnce directly or call Run.
func newTestServer(t testing.TB, dir string) *Server {
	t.Helper()
	return New(Config{
		ArchivePath:  filepath.Join(dir, "scans.tsv"),
		WorldPath:    filepath.Join(dir, "world.colstore"),
		PollInterval: 5 * time.Millisecond,
	})
}

// get runs one request through the server's full middleware stack.
func get(h http.Handler, path string) *httptest.ResponseRecorder {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
	return rec
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func decodeJSON[T any](t *testing.T, rec *httptest.ResponseRecorder) T {
	t.Helper()
	var v T
	if err := json.Unmarshal(rec.Body.Bytes(), &v); err != nil {
		t.Fatalf("bad JSON %q: %v", rec.Body.String(), err)
	}
	return v
}

type table1Doc struct {
	Day  string                 `json:"day"`
	TLDs []colstore.TLDOverview `json:"tlds"`
}

// TestServerLifecycleAndEndpoints runs the daemon end to end against a
// real archive: readiness transitions, then every query endpoint, with
// /v1/table1 checked against an independently built colstore world.
func TestServerLifecycleAndEndpoints(t *testing.T) {
	dir := t.TempDir()
	days := []simtime.Day{100, 130, 160}
	var snaps []*dataset.Snapshot
	s := newTestServer(t, dir)
	for _, d := range days {
		snap := mkSnap(d, 120)
		snaps = append(snaps, snap)
		archivetest.Append(t, s.cfg.ArchivePath, archivetest.Archive(t, snap))
	}
	h := s.Handler()

	if rec := get(h, "/healthz"); rec.Code != http.StatusOK {
		t.Fatalf("/healthz before Run: %d", rec.Code)
	}
	if rec := get(h, "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz before Run: %d, want 503", rec.Code)
	}
	if rec := get(h, "/v1/table1"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/v1/table1 before Run: %d, want 503", rec.Code)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan struct{})
	go func() { defer close(done); s.Run(ctx) }()
	waitFor(t, "readiness", func() bool { return get(h, "/readyz").Code == http.StatusOK })

	// Table 1 must match an index built directly from the same snapshots.
	ing := colstore.NewIngester()
	for _, snap := range snaps {
		if _, err := ing.AppendDay(snap); err != nil {
			t.Fatal(err)
		}
	}
	want := ing.Freeze()
	lastDay := days[len(days)-1]
	got := decodeJSON[table1Doc](t, get(h, "/v1/table1"))
	if got.Day != lastDay.String() {
		t.Fatalf("table1 day = %s, want %s", got.Day, lastDay)
	}
	wantRows := want.Overview(lastDay, []string{"com", "net", "org"})
	if !reflect.DeepEqual(got.TLDs, wantRows) {
		t.Fatalf("table1 rows = %+v, want %+v", got.TLDs, wantRows)
	}

	// Per-day query.
	got = decodeJSON[table1Doc](t, get(h, "/v1/table1?day=2015-04-11&tlds=com"))
	if got.Day != days[0].String() || len(got.TLDs) != 1 || got.TLDs[0].TLD != "com" {
		t.Fatalf("day/tld-filtered table1 = %+v", got)
	}

	// Operators: descending counts, limit respected.
	opsDoc := decodeJSON[struct {
		Operators []colstore.OperatorCount `json:"operators"`
	}](t, get(h, "/v1/operators?class=dnskey&limit=2"))
	if len(opsDoc.Operators) == 0 || len(opsDoc.Operators) > 2 {
		t.Fatalf("operators = %+v", opsDoc.Operators)
	}

	// Series for one operator.
	serDoc := decodeJSON[struct {
		Operator string                 `json:"operator"`
		Points   []colstore.SeriesPoint `json:"points"`
	}](t, get(h, "/v1/series?operator=alpha-dns&from=2015-04-11&to=2015-06-10&step=30"))
	if serDoc.Operator != "alpha-dns" || len(serDoc.Points) != 3 {
		t.Fatalf("series = %+v", serDoc)
	}
	if serDoc.Points[0].Total == 0 {
		t.Fatal("series has an empty population on an ingested day")
	}

	// Registrars: scan records carry no registrar attribution (that comes
	// from WHOIS enrichment), and the unnamed registrar is excluded from
	// the tally — the endpoint answers 200 with an empty list.
	regRec := get(h, "/v1/registrars")
	regDoc := decodeJSON[struct {
		Registrars []struct {
			Registrar string `json:"registrar"`
			Domains   int    `json:"domains"`
		} `json:"registrars"`
	}](t, regRec)
	if regRec.Code != http.StatusOK || len(regDoc.Registrars) != 0 {
		t.Fatalf("registrars: %d %+v, want 200 with no attributed rows", regRec.Code, regDoc.Registrars)
	}

	// DS gap.
	gapDoc := decodeJSON[struct {
		DSGapPct float64 `json:"ds_gap_pct"`
	}](t, get(h, "/v1/dsgap"))
	if wantGap := want.DSGapPct(lastDay); gapDoc.DSGapPct != wantGap {
		t.Fatalf("dsgap = %v, want %v", gapDoc.DSGapPct, wantGap)
	}

	// Status document.
	st := decodeJSON[Status](t, get(h, "/v1/status"))
	if !st.Ready || st.Sections != 3 || st.Quarantined != 0 || st.Domains != want.Len() {
		t.Fatalf("status = %+v", st)
	}

	// Malformed queries are 400s, not 500s.
	for _, path := range []string{
		"/v1/table1?day=bogus",
		"/v1/table1?day=9999-12-31",
		"/v1/series",
		"/v1/series?operator=x&from=2016-12-31&to=2016-01-01",
		"/v1/series?operator=x&step=-1",
		"/v1/operators?class=nonsense",
	} {
		if rec := get(h, path); rec.Code != http.StatusBadRequest {
			t.Errorf("%s: %d, want 400", path, rec.Code)
		}
	}

	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Run did not stop on cancel")
	}
}

// TestServerIncrementalIngest: sections appended while the daemon runs
// appear in served answers without a restart or world rebuild.
func TestServerIncrementalIngest(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	archivetest.Append(t, s.cfg.ArchivePath, archivetest.Archive(t, mkSnap(200, 60)))
	h := s.Handler()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go s.Run(ctx)
	waitFor(t, "first section served", func() bool {
		return decodeJSON[Status](t, get(h, "/v1/status")).Sections == 1
	})

	archivetest.Append(t, s.cfg.ArchivePath, archivetest.Archive(t, mkSnap(230, 90)))
	archivetest.Append(t, s.cfg.ArchivePath, archivetest.Archive(t, mkSnap(260, 90)))
	waitFor(t, "appended sections ingested", func() bool {
		st := decodeJSON[Status](t, get(h, "/v1/status"))
		return st.Sections == 3 && st.Ready
	})
	got := decodeJSON[table1Doc](t, get(h, "/v1/table1"))
	if got.Day != simtime.Day(260).String() {
		t.Fatalf("table1 day = %s, want %s", got.Day, simtime.Day(260))
	}
	// 90 targets minus the 8 whose every measurement failed (i%11 == 10):
	// failed records never create rows.
	total := 0
	for _, row := range got.TLDs {
		total += row.Domains
	}
	if total != 82 {
		t.Fatalf("served %d domains, want 82", total)
	}
}

// TestReadinessGoesStaleWithoutPolls: readiness decays when the tailer
// stops confirming the archive, even though a world is still published.
func TestReadinessGoesStaleWithoutPolls(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, dir)
	s.readyMaxLag = 30 * time.Millisecond
	archivetest.Append(t, s.cfg.ArchivePath, archivetest.Archive(t, mkSnap(300, 20)))
	if err := s.resumeOnce(); err != nil {
		t.Fatal(err)
	}
	if ok, reason := s.ready(); ok || !strings.Contains(reason, "not polled") {
		t.Fatalf("ready before any poll: %v %q", ok, reason)
	}
	if err := s.pollOnce(); err != nil {
		t.Fatal(err)
	}
	if ok, _ := s.ready(); !ok {
		t.Fatal("not ready after a successful poll")
	}
	waitFor(t, "staleness", func() bool {
		ok, reason := s.ready()
		return !ok && strings.Contains(reason, "stale")
	})
	if rec := get(s.Handler(), "/readyz"); rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("/readyz while stale: %d, want 503", rec.Code)
	}
	// Data keeps serving while not-ready: readiness gates rollout, not reads.
	if rec := get(s.Handler(), "/v1/table1"); rec.Code != http.StatusOK {
		t.Fatalf("/v1/table1 while stale: %d, want 200", rec.Code)
	}
}
