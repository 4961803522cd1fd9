// Package scan implements the OpenINTEL-style measurement engine: for every
// second-level domain in a TLD it collects the NS RRset and DS RRset from
// the TLD's authoritative servers and the DNSKEY RRset (with RRSIGs) from
// the domain's own nameservers, producing one dataset.Record per domain —
// the exact observable basis of the paper's longitudinal study (section
// 4.1).
//
// A worker pool issues the queries through an exchange.Build stack, so
// scans run identically against the in-memory simulation and against real
// UDP/TCP servers. The engine assumes an unhealthy network: every query
// runs under a retry policy, the DNSKEY step fails over across all NS
// hosts — consulting the scanner's own per-server counts so re-sweep
// passes stop leading with known-dead servers — failed targets get bounded
// re-sweep passes, and each ScanDay returns a SweepHealth report
// accounting for everything it could not measure, including the exchange
// stack's per-layer counters.
//
// Determinism contract: the scanner's outputs are a pure function of the
// zone data and the fault schedule, independent of worker interleaving.
// No exchange is ever short-circuited, and re-sweep ordering consults a
// dead-server set frozen from the scanner's per-server success and failure
// counts at each pass boundary — commutative counters whose pass-boundary
// values do not depend on scheduling.
package scan

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/simtime"
)

// Target is one domain to scan.
type Target struct {
	Domain string
	TLD    string
}

// Config configures a Scanner.
type Config struct {
	// Exchange is the transport that carries queries.
	Exchange exchange.Exchanger
	// TLDServers maps each TLD to its authoritative server address.
	TLDServers map[string]string
	// Workers is the concurrency of the sweep (default 16).
	Workers int
	// Clock anchors RRSIG validity checking.
	Clock func() simtime.Day
	// Retry is the per-query retry policy (zero value → retry.Default()).
	Retry retry.Policy
	// MaxResweeps bounds the re-sweep passes over failed targets at the
	// end of a sweep (default 2; negative disables re-sweeping).
	MaxResweeps int
	// Middleware is composed into the exchange stack between the transport
	// Tap and the transport — the slot a fault injector occupies, so
	// injected faults consume retry attempts, and count as exchanges and
	// errors, exactly like real ones.
	Middleware []exchange.Middleware
	// Dedup coalesces identical in-flight queries across workers.
	Dedup bool
	// Cache adds a message cache above everything (nil disables). The
	// scanner flushes it automatically when ScanDay's day changes, so a
	// longitudinal run can never serve yesterday's zone from cache.
	Cache *exchange.CacheOptions
}

// Scanner sweeps domain populations.
type Scanner struct {
	cfg     Config
	stack   *exchange.Stack
	ask     exchange.Exchanger // send, as Observe takes it
	queries atomic.Int64
	qid     atomic.Uint32

	mu      sync.Mutex
	lastDay simtime.Day
	hasDay  bool
	// servers counts each server's completed exchanges over the scanner's
	// life (guarded by mu); deadServers freezes it at pass boundaries.
	servers map[string]*serverCount
}

// serverCount is one server's completed exchanges: those that returned a
// response and those that returned an error.
type serverCount struct{ ok, failed int64 }

// New creates a scanner.
func New(cfg Config) (*Scanner, error) {
	if cfg.Exchange == nil {
		return nil, fmt.Errorf("scan: exchanger required")
	}
	if len(cfg.TLDServers) == 0 {
		return nil, fmt.Errorf("scan: no TLD servers configured")
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 16
	}
	if cfg.Clock == nil {
		cfg.Clock = func() simtime.Day { return simtime.End }
	}
	switch {
	case cfg.MaxResweeps == 0:
		cfg.MaxResweeps = 2
	case cfg.MaxResweeps < 0:
		cfg.MaxResweeps = 0
	}
	stack, err := exchange.Build(exchange.Options{
		Transport:  cfg.Exchange,
		Middleware: cfg.Middleware,
		Retry:      &cfg.Retry,
		Dedup:      cfg.Dedup,
		Cache:      cfg.Cache,
	})
	if err != nil {
		return nil, fmt.Errorf("scan: %w", err)
	}
	s := &Scanner{cfg: cfg, stack: stack, servers: make(map[string]*serverCount)}
	s.ask = exchange.Func(s.send)
	return s, nil
}

// Stack exposes the scanner's exchange stack: per-layer counters for
// benchmarks and health reports, and the message cache for explicit
// flushes.
func (s *Scanner) Stack() *exchange.Stack { return s.stack }

// Queries reports the total logical queries issued across all sweeps
// (retries of the same query are not double-counted).
func (s *Scanner) Queries() int64 { return s.queries.Load() }

// scanStatus is the outcome of one target's scan.
type scanStatus int

const (
	statusMeasured scanStatus = iota
	statusUnregistered
	statusUnknownTLD
	statusFailed
)

// ScanDay sweeps the targets and returns the day's snapshot together with
// its health report. Unregistered domains (NXDOMAIN at the TLD) are
// omitted from the snapshot, as they are absent from zone files; targets
// that could not be measured appear as Failed placeholder records and are
// itemized in the health report rather than silently dropped.
//
// ScanDay is fully context-cancellation-aware: on cancellation it stops
// dispatching, drains its workers, accounts every unprocessed target as a
// FailCancelled failure (so Targets == Measured + Unregistered + skipped +
// Failures still holds), and returns the partial snapshot with ctx's
// error — the clean-interruption contract the checkpoint/resume path
// builds on.
func (s *Scanner) ScanDay(ctx context.Context, day simtime.Day, targets []Target) (*dataset.Snapshot, *SweepHealth, error) {
	s.flushOnDayChange(day)
	snap := &dataset.Snapshot{Day: day, Records: make([]dataset.Record, 0, len(targets))}
	health := &SweepHealth{Day: day, Targets: len(targets), ByClass: make(map[FailClass]int)}
	start := s.stack.Counters()
	defer func() {
		health.Measured = snap.MeasuredCount()
		health.Exchange = s.stack.Counters().Sub(start)
	}()

	pending := targets
	var failures []Failure
	// dead is the frozen known-dead server set consulted for DNSKEY host
	// ordering; empty on the first pass, refreshed from the per-server
	// counts at each re-sweep boundary so later passes stop leading with servers that
	// answered nothing all sweep.
	var dead map[string]bool
	for pass := 0; ; pass++ {
		failures = s.sweep(ctx, snap, health, pending, dead)
		if err := ctx.Err(); err != nil {
			s.recordFailures(snap, health, failures)
			return snap, health, err
		}
		if len(failures) == 0 || pass >= s.cfg.MaxResweeps {
			break
		}
		// Bounded re-sweep: give the failed targets a fresh pass — by now
		// a transient outage may have cleared, and retried queries draw
		// new network samples.
		health.Resweeps++
		dead = s.deadServers()
		pending = make([]Target, len(failures))
		for i := range failures {
			pending[i] = failures[i].Target
		}
	}
	s.recordFailures(snap, health, failures)
	return snap, health, nil
}

// flushOnDayChange drops the message cache when the simulated day moves:
// zone mutations between days must never be masked by yesterday's cached
// answers. Re-scans of the same day keep the warm cache.
func (s *Scanner) flushOnDayChange(day simtime.Day) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.hasDay && day != s.lastDay {
		s.stack.FlushCache()
	}
	s.lastDay, s.hasDay = day, true
}

// deadServers snapshots the known-dead set: servers that failed at least
// once and never answered. The counts are commutative, so at a pass
// boundary (workers quiesced) the set is a deterministic function of the
// completed passes' outcomes, not of worker interleaving.
func (s *Scanner) deadServers() map[string]bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	var dead map[string]bool
	for addr, c := range s.servers {
		if c.failed > 0 && c.ok == 0 {
			if dead == nil {
				dead = make(map[string]bool)
			}
			dead[addr] = true
		}
	}
	return dead
}

// sweep runs one worker-pool pass over the targets, appending measured
// records to snap and returning the targets that failed.
func (s *Scanner) sweep(ctx context.Context, snap *dataset.Snapshot, health *SweepHealth, targets []Target, dead map[string]bool) []Failure {
	var mu sync.Mutex
	var failures []Failure
	jobs := make(chan Target)
	var wg sync.WaitGroup
	for w := 0; w < s.cfg.Workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range jobs {
				rec, status, fail := s.scanOne(ctx, t, dead)
				mu.Lock()
				switch status {
				case statusMeasured:
					snap.Records = append(snap.Records, rec)
				case statusUnregistered:
					health.Unregistered++
				case statusUnknownTLD:
					health.SkippedUnknownTLD = append(health.SkippedUnknownTLD, t.Domain)
					health.ByClass[FailUnknownTLD]++
				case statusFailed:
					failures = append(failures, *fail)
				}
				mu.Unlock()
			}
		}()
	}
	dispatched := len(targets)
	for i, t := range targets {
		if ctx.Err() != nil {
			dispatched = i
			break
		}
		jobs <- t
	}
	close(jobs)
	wg.Wait()
	// Cancellation accounting: targets never handed to a worker are still
	// part of the sweep's input and must not vanish from the ledger — they
	// are failures of class "cancelled", resumable later, never silently
	// dropped. (Dispatched targets whose exchanges died on the cancelled
	// context classify themselves the same way via classifyErr.)
	for _, t := range targets[dispatched:] {
		failures = append(failures, Failure{
			Target: t, Stage: "dispatch", Class: FailCancelled,
			Err: context.Cause(ctx).Error(),
		})
	}
	return failures
}

// recordFailures folds the final failures into the health report and the
// snapshot (as Failed placeholder records carrying the failure class).
func (s *Scanner) recordFailures(snap *dataset.Snapshot, health *SweepHealth, failures []Failure) {
	for i := range failures {
		f := &failures[i]
		health.Failures = append(health.Failures, *f)
		health.ByClass[f.Class]++
		snap.Records = append(snap.Records, dataset.Record{
			Domain: f.Target.Domain, TLD: f.Target.TLD,
			Failed: true, FailReason: string(f.Class),
		})
	}
}

// send carries one query of a sweep: it stamps a fresh ID, counts the
// logical query, hands it to the stack and counts the outcome against the
// server. A context error is the caller's condition, not the server's: a
// sweep being cancelled must not mark every server it was asking dead.
func (s *Scanner) send(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	q.ID = uint16(s.qid.Add(1))
	s.queries.Add(1)
	resp, err := s.stack.Exchange(ctx, server, q)
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return resp, err
	}
	s.mu.Lock()
	c := s.servers[server]
	if c == nil {
		c = &serverCount{}
		s.servers[server] = c
	}
	if err != nil {
		c.failed++
	} else {
		c.ok++
	}
	s.mu.Unlock()
	return resp, err
}

// orderHosts returns hosts with known-dead servers moved to the back,
// preserving relative order within each group; with no dead set it returns
// hosts unchanged. Dead servers are still tried last — a recovered server
// can answer and clear its record — but they no longer eat a timeout
// budget before every live host.
func orderHosts(hosts []string, dead map[string]bool) []string {
	if len(dead) == 0 || len(hosts) <= 1 {
		return hosts
	}
	alive := make([]string, 0, len(hosts))
	var down []string
	for _, h := range hosts {
		if dead[h] {
			down = append(down, h)
		} else {
			alive = append(alive, h)
		}
	}
	return append(alive, down...)
}

// Observation is what the DNS publishes about one delegation — the facts
// the paper's dataset records per domain: the NS and DS RRsets at the
// parent, and the DNSKEY RRset with the RRSIGs over it at the domain's own
// nameservers.
type Observation struct {
	NSHosts []string
	DS      []*dnswire.DS
	// Keys is never nil; it is empty for a domain that serves no DNSKEY.
	Keys *dnssec.RRSet
}

// ErrUnregistered reports a domain the parent answers NXDOMAIN for.
var ErrUnregistered = errors.New("scan: domain is not registered at the parent")

// Observe collects one domain's Observation through ex: NS and DS from the
// parent's server, DNSKEY from the domain's nameservers (dnssec.FetchKeys,
// with the hosts in dead tried last). A domain is either observed whole or
// not at all: besides ErrUnregistered, every error is a *Failure naming the
// step that failed — a DS query that fails must not turn a full deployment
// into a partial one, nor dark nameservers a partial one into none. A
// referral naming an NS host that an archive line cannot carry
// (dataset.LineCarriesHost) fails as FailMalformed.
func Observe(ctx context.Context, ex exchange.Exchanger, parent, domain string, dead map[string]bool) (*Observation, error) {
	domain = dnswire.CanonicalName(domain)
	fail := func(stage string, class FailClass, err error) *Failure {
		f := &Failure{Target: Target{Domain: domain}, Stage: stage, Class: class}
		if err != nil {
			f.Err = err.Error()
		}
		return f
	}
	askParent := func(stage string, t dnswire.Type) (*dnswire.Message, error) {
		q := dnswire.NewQuery(0, domain, t)
		q.SetEDNS(4096, true)
		resp, err := ex.Exchange(ctx, parent, q)
		switch {
		case err != nil:
			return nil, fail(stage, classifyErr(err), err)
		case resp.RCode == dnswire.RCodeNameError && t == dnswire.TypeNS:
			return nil, ErrUnregistered
		case resp.RCode != dnswire.RCodeSuccess:
			return nil, fail(stage, FailLame, fmt.Errorf("%v from TLD server %s", resp.RCode, parent))
		}
		return resp, nil
	}
	obs := &Observation{}

	// NS from the parent zone (a referral; the NS set rides in authority).
	resp, err := askParent("ns", dnswire.TypeNS)
	if err != nil {
		return nil, err
	}
	for _, section := range [][]*dnswire.RR{resp.Authority, resp.Answers} {
		for _, rr := range section {
			if rr.Type == dnswire.TypeNS && rr.Name == domain {
				obs.NSHosts = append(obs.NSHosts, rr.Data.(*dnswire.NS).Host)
			}
		}
	}
	if len(obs.NSHosts) == 0 {
		// Registered (no NXDOMAIN) but no delegation NS: a lame entry in
		// the parent zone — measurable domains always carry an NS RRset.
		return nil, fail("ns", FailNoNS, nil)
	}
	for _, h := range obs.NSHosts {
		if !dataset.LineCarriesHost(h) {
			return nil, fail("ns", FailMalformed, fmt.Errorf("NS host %q from TLD server %s", h, parent))
		}
	}

	// DS from the parent zone (answered authoritatively by the parent).
	if resp, err = askParent("ds", dnswire.TypeDS); err != nil {
		return nil, err
	}
	obs.DS = dnssec.ExtractRRSet(resp.Answers, domain, dnswire.TypeDS).DS()

	// DNSKEY (+RRSIG) from the domain's own nameservers. Re-sweep passes
	// order the hosts by the scanner's per-server counts so known-dead
	// servers go last instead of being re-probed first every pass.
	if obs.Keys, err = dnssec.FetchKeys(ctx, ex, 0, domain, orderHosts(obs.NSHosts, dead)); err != nil {
		return nil, fail("dnskey", classifyErr(err), err)
	}
	return obs, nil
}

// scanOne measures one domain: it collects the Observation and judges the
// DS ↔ DNSKEY ↔ RRSIG link. dead, when non-nil, is the pass-frozen
// known-dead server set used to order DNSKEY failover.
func (s *Scanner) scanOne(ctx context.Context, t Target, dead map[string]bool) (dataset.Record, scanStatus, *Failure) {
	rec := dataset.Record{Domain: t.Domain, TLD: t.TLD}
	tldServer, ok := s.cfg.TLDServers[t.TLD]
	if !ok {
		return rec, statusUnknownTLD, nil
	}
	obs, err := Observe(ctx, s.ask, tldServer, t.Domain, dead)
	var fail *Failure
	switch {
	case errors.Is(err, ErrUnregistered):
		return rec, statusUnregistered, nil
	case errors.As(err, &fail):
		fail.Target = t
		return rec, statusFailed, fail
	}
	// Chain validity is the paper's criterion for a correctly deployed
	// domain.
	link := dnssec.Link(t.Domain, obs.DS, obs.Keys, s.cfg.Clock().Time())
	rec.NSHosts = obs.NSHosts
	rec.Operator = dataset.GroupOperatorAll(rec.NSHosts)
	rec.HasDS = link.HasDS
	rec.HasDNSKEY = link.HasDNSKEY
	rec.HasRRSIG = len(obs.Keys.Sigs) > 0
	rec.ChainValid = link.KeysValid
	return rec, statusMeasured, nil
}
