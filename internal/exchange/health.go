package exchange

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"sync"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnswire"
)

// ErrCircuitOpen marks a fast-fail from an open per-server circuit
// breaker. BreakerError wraps it together with the server's last real
// error, so errors.Is(err, ErrCircuitOpen) detects the breaker while
// failure classification still sees the underlying cause.
var ErrCircuitOpen = errors.New("exchange: server circuit open")

// BreakerError is returned when Health fast-fails an exchange to a server
// whose circuit is open. It carries the server's last observed error so
// callers classify the fast-fail exactly as they would have classified the
// real failure — the breaker saves round trips, it never invents a new
// failure mode.
type BreakerError struct {
	Server string
	Last   error
}

// Error implements error.
func (e *BreakerError) Error() string {
	return fmt.Sprintf("exchange: circuit open for %s (last error: %v)", e.Server, e.Last)
}

// Unwrap exposes the last underlying error for errors.Is/As chains.
func (e *BreakerError) Unwrap() error { return e.Last }

// Is matches ErrCircuitOpen.
func (e *BreakerError) Is(target error) bool { return target == ErrCircuitOpen }

// Timeout mirrors the net.Error convention of the wrapped error, so
// timeout-classifying callers see through the breaker.
func (e *BreakerError) Timeout() bool {
	var to interface{ Timeout() bool }
	return errors.As(e.Last, &to) && to.Timeout()
}

const (
	// breakerThreshold is the consecutive-failure count that opens a
	// server's circuit.
	breakerThreshold = 5
	// breakerProbeProb is the probability that a call to an open-circuit
	// server is let through as a half-open probe instead of fast-failing.
	// A successful probe closes the circuit.
	breakerProbeProb = 0.25
	// breakerSeed drives the deterministic probe draw.
	breakerSeed = 1
)

// HealthOptions tunes the Health middleware.
type HealthOptions struct {
	// DisableFastFail keeps the full per-server bookkeeping (trips,
	// ordering, snapshots) but never short-circuits an exchange. The scan
	// engine runs in this mode: its outputs must stay a pure function of
	// the fault schedule, and a fast-fail whose timing depends on worker
	// interleaving would break byte-identical re-runs.
	DisableFastFail bool
}

// ServerHealth is a commutative snapshot of one server's history:
// order-independent totals, safe to compare across runs at quiescent
// points (the scan engine snapshots them at re-sweep pass boundaries).
type ServerHealth struct {
	// Successes and Failures count completed exchanges.
	Successes, Failures int64
}

// Dead reports a server that has failed at least once and never
// succeeded — the "known-dead" criterion re-sweep ordering uses.
func (s ServerHealth) Dead() bool { return s.Failures > 0 && s.Successes == 0 }

// serverState is the live breaker state for one server.
type serverState struct {
	successes atomic.Int64
	failures  atomic.Int64

	mu          sync.Mutex
	consecFails int
	open        bool
	draws       uint64 // probe draws since the circuit opened
	lastErr     error
}

// Health tracks per-server outcomes and applies a consecutive-failure
// circuit breaker with probabilistic half-open probes: a server that has
// failed breakerThreshold times in a row stops receiving real traffic — calls
// fast-fail with a BreakerError — except for a deterministic fraction let
// through to detect recovery. This replaces blind server rotation: callers
// ask Order (or Snapshot) which servers are worth trying first instead of
// re-probing known-dead servers in list order.
type Health struct {
	inner Exchanger
	opts  HealthOptions

	mu      sync.RWMutex
	servers map[string]*serverState

	rot        atomic.Uint32
	trips      atomic.Int64
	recoveries atomic.Int64
	fastFails  atomic.Int64
	probes     atomic.Int64
}

// NewHealth creates the health middleware over inner.
func NewHealth(inner Exchanger, opts HealthOptions) *Health {
	return &Health{inner: inner, opts: opts, servers: make(map[string]*serverState)}
}

// counters snapshots closed→open transitions, open→closed transitions
// (successful probes), exchanges short-circuited by an open breaker, and
// half-open probes let through one.
func (h *Health) counters() HealthCounters {
	return HealthCounters{Trips: h.trips.Load(), Recoveries: h.recoveries.Load(), FastFails: h.fastFails.Load(), Probes: h.probes.Load()}
}

// state returns (creating if needed) the tracked state for server.
func (h *Health) state(server string) *serverState {
	h.mu.RLock()
	s := h.servers[server]
	h.mu.RUnlock()
	if s != nil {
		return s
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if s = h.servers[server]; s == nil {
		s = &serverState{}
		h.servers[server] = s
	}
	return s
}

// Snapshot returns the commutative per-server totals. The map is freshly
// allocated; ServerHealth values are copies.
func (h *Health) Snapshot() map[string]ServerHealth {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make(map[string]ServerHealth, len(h.servers))
	for addr, s := range h.servers {
		out[addr] = ServerHealth{Successes: s.successes.Load(), Failures: s.failures.Load()}
	}
	return out
}

// Order returns servers arranged for failover: servers with a closed
// circuit first — rotated by a round-robin offset so load spreads across a
// zone's NS set — followed by open-circuit servers as a last resort. The
// relative order within the open group is preserved.
func (h *Health) Order(servers []string) []string {
	if len(servers) <= 1 {
		return servers
	}
	healthy := make([]string, 0, len(servers))
	var down []string
	for _, addr := range servers {
		h.mu.RLock()
		s := h.servers[addr]
		h.mu.RUnlock()
		isOpen := false
		if s != nil {
			s.mu.Lock()
			isOpen = s.open
			s.mu.Unlock()
		}
		if isOpen {
			down = append(down, addr)
		} else {
			healthy = append(healthy, addr)
		}
	}
	out := make([]string, 0, len(servers))
	if len(healthy) > 0 {
		off := int(h.rot.Add(1)-1) % len(healthy)
		for i := range healthy {
			out = append(out, healthy[(off+i)%len(healthy)])
		}
	}
	return append(out, down...)
}

// probeDraw produces the deterministic uniform sample for the n-th draw
// against server since its circuit opened (same splitmix finalizer the
// fault injector uses, for well-spread consecutive draws).
func probeDraw(server string, n uint64) float64 {
	hsh := fnv.New64a()
	fmt.Fprintf(hsh, "%d|%s|%d", breakerSeed, server, n)
	x := hsh.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// observe records one outcome and drives the breaker state machine.
func (h *Health) observe(s *serverState, server string, err error) {
	if err == nil {
		s.successes.Add(1)
		s.mu.Lock()
		if s.open {
			h.recoveries.Add(1)
		}
		s.open = false
		s.consecFails = 0
		s.draws = 0
		s.mu.Unlock()
		return
	}
	s.failures.Add(1)
	s.mu.Lock()
	s.lastErr = err
	s.consecFails++
	if !s.open && s.consecFails >= breakerThreshold {
		s.open = true
		s.draws = 0
		h.trips.Add(1)
	}
	s.mu.Unlock()
}

// Exchange implements Exchanger with circuit breaking.
func (h *Health) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	s := h.state(server)
	if !h.opts.DisableFastFail {
		s.mu.Lock()
		if s.open {
			n := s.draws
			s.draws++
			if probeDraw(server, n) >= breakerProbeProb {
				last := s.lastErr
				s.mu.Unlock()
				h.fastFails.Add(1)
				return nil, &BreakerError{Server: server, Last: last}
			}
			h.probes.Add(1)
		}
		s.mu.Unlock()
	}
	resp, err := h.inner.Exchange(ctx, server, q)
	// Context death is the caller's condition, not the server's: a sweep
	// being cancelled must not poison every server's breaker.
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return resp, err
	}
	h.observe(s, server, err)
	return resp, err
}
