// Package apiserv is the always-on observatory daemon behind regsec-api:
// an HTTP/JSON query plane over a colstore-backed world that keeps
// growing as the scan archive does. The design splits cleanly into a
// write side and a read side joined by one atomic pointer:
//
//   - the tailer (tailer.go) follows the archive, ingests new sections
//     incrementally, and commits each one to a crash-safe world file;
//   - readers serve every query from the immutable frozen Index the
//     pointer currently holds — no locks, no coordination with ingest;
//   - Run restarts the tailer on failure, and the admission gate
//     (admission.go) sheds load before overload can take the process
//     down.
//
// Health semantics: /healthz answers 200 whenever the process serves
// HTTP at all (liveness); /readyz answers 200 only once a world is
// published AND the tailer's last successful archive poll is fresh
// (readiness = the data is both present and current).
package apiserv

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/simtime"
)

// Config parameterizes a Server. Zero values get production defaults.
type Config struct {
	// ArchivePath is the trailered scan archive the tailer follows.
	ArchivePath string
	// WorldPath is the persisted colstore world (created on first
	// commit, resumed from on restart).
	WorldPath string

	// PollInterval is the tailer's archive poll cadence (default 500ms).
	PollInterval time.Duration
}

// The daemon's fixed limits.
const (
	// readyMaxLag is how stale the last successful poll may be before
	// /readyz starts failing.
	readyMaxLag = 10 * time.Second
	// requestTimeout bounds each admitted request's work.
	requestTimeout = 10 * time.Second
	// The admission gate: maxInFlight requests run, maxQueue more wait
	// at most queueWait for a slot.
	maxInFlight = 64
	maxQueue    = 256
	queueWait   = 100 * time.Millisecond
	// The tailer's restarts: the first waits restartBackoff, the wait
	// doubles per consecutive failure up to maxRestartBackoff, and it
	// resets once a run survives longer than resetBackoffAfter.
	restartBackoff    = 100 * time.Millisecond
	maxRestartBackoff = 5 * time.Second
	resetBackoffAfter = 30 * time.Second
)

// worldView pairs a frozen index with the day its data reaches.
type worldView struct {
	idx *colstore.Index
	day simtime.Day // last ingested day, simtime.Never before the first
}

// Server is the daemon: the tailer's mutable ingest state, the published
// world, the admission gate, and the HTTP surface.
type Server struct {
	cfg         Config
	gate        *gate
	mux         *http.ServeMux
	readyMaxLag time.Duration

	world        atomic.Pointer[worldView]
	lastPollNano atomic.Int64
	panics       atomic.Uint64
	restarts     atomic.Uint64

	// Tailer state; ingMu serializes the tailer against /v1/status.
	ingMu sync.Mutex
	ing   *colstore.Ingester
	cur   cursor
}

// New builds a Server. It performs no I/O; the world is resumed when Run
// starts the tailer.
func New(cfg Config) *Server {
	s := &Server{
		cfg:         cfg,
		gate:        newGate(maxInFlight, maxQueue, queueWait),
		readyMaxLag: readyMaxLag,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /readyz", s.handleReadyz)
	s.mux.HandleFunc("GET /v1/status", s.handleStatus)
	s.mux.HandleFunc("GET /v1/table1", s.guarded(s.handleTable1))
	s.mux.HandleFunc("GET /v1/series", s.guarded(s.handleSeries))
	s.mux.HandleFunc("GET /v1/operators", s.guarded(s.handleOperators))
	s.mux.HandleFunc("GET /v1/registrars", s.guarded(s.handleRegistrars))
	s.mux.HandleFunc("GET /v1/dsgap", s.guarded(s.handleDSGap))
	return s
}

// publish swaps the served world. The old view is simply dropped: frozen
// views are heap-backed, never mmap, so outstanding readers finish on the
// old one and the GC reclaims it.
func (s *Server) publish(idx *colstore.Index, day simtime.Day) {
	s.world.Store(&worldView{idx: idx, day: day})
}

func (s *Server) markPolled() { s.lastPollNano.Store(time.Now().UnixNano()) }

// ready evaluates readiness: a world has been published and the tailer
// has polled the archive recently.
func (s *Server) ready() (bool, string) {
	if s.world.Load() == nil {
		return false, "world not loaded"
	}
	lag := s.readyMaxLag
	last := s.lastPollNano.Load()
	if last == 0 {
		return false, "ingest has not polled the archive yet"
	}
	if since := time.Since(time.Unix(0, last)); since > lag {
		return false, fmt.Sprintf("ingest stale: last poll %v ago (max %v)", since.Round(time.Millisecond), lag)
	}
	return true, ""
}

// Run runs the daemon's background job, the tailer, until ctx is
// canceled. A tailer that fails — by returning an error or by panicking —
// is logged, counted in component_restarts and restarted after
// restartDelay: a panic in ingest never takes down the query plane. The
// HTTP listener is the caller's (cmd/regsec-api pairs Handler with
// httpx.NewServer).
func (s *Server) Run(ctx context.Context) {
	var delay time.Duration
	for {
		start := time.Now()
		err := s.runTailer(ctx)
		if ctx.Err() != nil {
			return
		}
		delay = restartDelay(delay, time.Since(start))
		slog.Warn("apiserv: tailer failed, restarting", "delay", delay, "err", err)
		s.restarts.Add(1)
		select {
		case <-ctx.Done():
			return
		case <-time.After(delay):
		}
	}
}

// restartDelay is the wait before restarting a tailer that failed after
// running for ran, given the previous wait (0 before the first restart).
func restartDelay(prev, ran time.Duration) time.Duration {
	if prev == 0 || ran > resetBackoffAfter {
		return restartBackoff
	}
	return min(2*prev, maxRestartBackoff)
}

// Handler returns the full middleware stack: panic recovery outermost,
// then admission, then the per-request deadline, then routing.
func (s *Server) Handler() http.Handler {
	inner := withDeadline(requestTimeout, s.mux)
	return recoverPanics(&s.panics, s.gate.wrap(inner))
}

// GateStats reports admission accounting (bench and status surface).
func (s *Server) GateStats() (admitted, shed uint64) {
	return s.gate.admitted.Load(), s.gate.shed.Load()
}

// ---- handlers ----

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if ok, reason := s.ready(); !ok {
		http.Error(w, reason, http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// Status is the /v1/status document.
type Status struct {
	Ready       bool   `json:"ready"`
	Reason      string `json:"reason,omitempty"`
	Domains     int    `json:"domains"`
	Operators   int    `json:"operators"`
	LastDay     string `json:"last_day,omitempty"`
	Sections    int    `json:"sections"`
	Quarantined int    `json:"quarantined"`
	Offset      int64  `json:"offset"`
	Admitted    uint64 `json:"requests_admitted"`
	Shed        uint64 `json:"requests_shed"`
	Panics      uint64 `json:"handler_panics"`
	Restarts    uint64 `json:"component_restarts"`
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st := Status{
		Admitted: s.gate.admitted.Load(),
		Shed:     s.gate.shed.Load(),
		Panics:   s.panics.Load(),
		Restarts: s.restarts.Load(),
	}
	st.Ready, st.Reason = s.ready()
	if view := s.world.Load(); view != nil {
		st.Domains = view.idx.Len()
		st.Operators = view.idx.Operators()
		st.LastDay = lastDayString(view.day)
	}
	s.ingMu.Lock()
	st.Sections = s.cur.sections
	st.Quarantined = s.cur.quarantined
	st.Offset = s.cur.offset
	s.ingMu.Unlock()
	writeJSON(w, &st)
}

// lastDayString renders a day for /v1/status and the world META ("" for
// Never).
func lastDayString(d simtime.Day) string {
	if d == simtime.Never {
		return ""
	}
	return d.String()
}

// guarded wraps a data handler with the world-availability check shared
// by every query endpoint.
func (s *Server) guarded(h func(http.ResponseWriter, *http.Request, *worldView)) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		view := s.world.Load()
		if view == nil {
			http.Error(w, "world not loaded yet", http.StatusServiceUnavailable)
			return
		}
		h(w, r, view)
	}
}

// queryDay is the default day for aggregations: the last ingested day,
// or the paper's study end before any ingest.
func (s *Server) queryDay(view *worldView) simtime.Day {
	if view.day == simtime.Never {
		return simtime.End
	}
	return view.day
}

// parseDay reads a ?day=YYYY-MM-DD parameter.
func (s *Server) parseDay(r *http.Request, view *worldView) (simtime.Day, error) {
	raw := r.URL.Query().Get("day")
	if raw == "" {
		return s.queryDay(view), nil
	}
	return simtime.Parse(raw)
}

// parseTLDs reads a ?tlds=com,net parameter; empty means every TLD in
// the world.
func parseTLDs(r *http.Request, view *worldView) []string {
	raw := r.URL.Query().Get("tlds")
	if raw == "" {
		tlds := view.idx.TLDs()
		sort.Strings(tlds)
		return tlds
	}
	var out []string
	for _, t := range strings.Split(raw, ",") {
		if t = strings.TrimSpace(t); t != "" {
			out = append(out, t)
		}
	}
	return out
}

var classNames = map[string]colstore.Class{
	"":        colstore.ClassFull,
	"any":     colstore.ClassAny,
	"dnskey":  colstore.ClassDNSKEY,
	"partial": colstore.ClassPartial,
	"full":    colstore.ClassFull,
	"broken":  colstore.ClassBroken,
	"none":    colstore.ClassNone,
}

func (s *Server) handleTable1(w http.ResponseWriter, r *http.Request, view *worldView) {
	day, err := s.parseDay(r, view)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, struct {
		Day  string                 `json:"day"`
		TLDs []colstore.TLDOverview `json:"tlds"`
	}{day.String(), view.idx.Overview(day, parseTLDs(r, view))})
}

func (s *Server) handleSeries(w http.ResponseWriter, r *http.Request, view *worldView) {
	q := r.URL.Query()
	operator := q.Get("operator")
	if operator == "" {
		http.Error(w, "missing required parameter: operator", http.StatusBadRequest)
		return
	}
	from, to := simtime.Day(0), s.queryDay(view)
	var err error
	if raw := q.Get("from"); raw != "" {
		if from, err = simtime.Parse(raw); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if raw := q.Get("to"); raw != "" {
		if to, err = simtime.Parse(raw); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	}
	if from > to {
		http.Error(w, fmt.Sprintf("from %s is after to %s", from, to), http.StatusBadRequest)
		return
	}
	step := 1
	if raw := q.Get("step"); raw != "" {
		if step, err = strconv.Atoi(raw); err != nil || step <= 0 {
			http.Error(w, fmt.Sprintf("bad step %q", raw), http.StatusBadRequest)
			return
		}
	}
	points, err := view.idx.SeriesCtx(r.Context(), operator, q.Get("tld"), from, to, step)
	if err != nil {
		writeQueryError(w, err)
		return
	}
	writeJSON(w, struct {
		Operator string                 `json:"operator"`
		TLD      string                 `json:"tld,omitempty"`
		Points   []colstore.SeriesPoint `json:"points"`
	}{operator, q.Get("tld"), points})
}

func (s *Server) handleOperators(w http.ResponseWriter, r *http.Request, view *worldView) {
	day, err := s.parseDay(r, view)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	class, ok := classNames[r.URL.Query().Get("class")]
	if !ok {
		http.Error(w, fmt.Sprintf("unknown class %q", r.URL.Query().Get("class")), http.StatusBadRequest)
		return
	}
	counts := view.idx.CountByOperator(day, class, parseTLDs(r, view)...)
	if raw := r.URL.Query().Get("limit"); raw != "" {
		limit, err := strconv.Atoi(raw)
		if err != nil || limit < 0 {
			http.Error(w, fmt.Sprintf("bad limit %q", raw), http.StatusBadRequest)
			return
		}
		if limit < len(counts) {
			counts = counts[:limit]
		}
	}
	writeJSON(w, struct {
		Day       string                   `json:"day"`
		Operators []colstore.OperatorCount `json:"operators"`
	}{day.String(), counts})
}

func (s *Server) handleRegistrars(w http.ResponseWriter, r *http.Request, view *worldView) {
	day, err := s.parseDay(r, view)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	var tldList []string
	if r.URL.Query().Get("tlds") != "" {
		tldList = parseTLDs(r, view)
	}
	type regRow struct {
		Registrar string `json:"registrar"`
		Domains   int    `json:"domains"`
		DNSKEY    int    `json:"dnskey"`
	}
	domains := view.idx.DomainsByRegistrar(tldList...)
	keyed := view.idx.DNSKEYByRegistrar(day, tldList...)
	rows := make([]regRow, 0, len(domains))
	for reg, n := range domains {
		rows = append(rows, regRow{Registrar: reg, Domains: n, DNSKEY: keyed[reg]})
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Domains != rows[j].Domains {
			return rows[i].Domains > rows[j].Domains
		}
		return rows[i].Registrar < rows[j].Registrar
	})
	writeJSON(w, struct {
		Day        string   `json:"day"`
		Registrars []regRow `json:"registrars"`
	}{day.String(), rows})
}

func (s *Server) handleDSGap(w http.ResponseWriter, r *http.Request, view *worldView) {
	day, err := s.parseDay(r, view)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	writeJSON(w, struct {
		Day      string  `json:"day"`
		DSGapPct float64 `json:"ds_gap_pct"`
	}{day.String(), view.idx.DSGapPct(day, parseTLDs(r, view)...)})
}

// writeQueryError maps query-path errors onto HTTP statuses.
func writeQueryError(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, colstore.ErrClosed):
		http.Error(w, "world is reloading, retry", http.StatusServiceUnavailable)
	case errors.Is(err, context.DeadlineExceeded):
		http.Error(w, "query exceeded its deadline", http.StatusGatewayTimeout)
	default:
		// Client went away mid-query (context canceled) or similar; the
		// status is moot but 499-style bookkeeping helps logs.
		http.Error(w, err.Error(), http.StatusRequestTimeout)
	}
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
