// Package faultnet is a fault-injecting exchange.Exchanger middleware. It
// wraps any transport (the in-memory MemNet or the real NetExchanger) and
// injects deterministic, seeded faults per server address pattern: packet
// loss, added latency, timeouts, SERVFAIL/REFUSED substitution, truncation,
// response-ID corruption, and scheduled outages (a server dark for
// simulated days N..M).
//
// The paper's longitudinal sweeps (section 4.1) ran against the live DNS,
// where all of these happen daily; faultnet lets the simulated worlds of
// package tldsim declare flaky operators so the scan/resolve path can be
// proven to recover every measurable domain and to account for every
// domain it cannot measure.
//
// Determinism: every fault decision is a pure function of (seed, server,
// question, per-question attempt number), so a sweep injects an identical
// fault schedule regardless of worker scheduling, and a retried query draws
// a fresh — but reproducible — outcome on each attempt, exactly like an
// independent network sample.
package faultnet

import (
	"context"
	"fmt"
	"hash/fnv"
	"strings"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/simtime"
)

// Class names one kind of injected fault.
type Class string

// The fault classes an Injector can produce.
const (
	// ClassLoss drops the exchange as a lost packet (timeout error).
	ClassLoss Class = "loss"
	// ClassTimeout is an explicit unresponsive-server timeout.
	ClassTimeout Class = "timeout"
	// ClassServFail substitutes a SERVFAIL response.
	ClassServFail Class = "servfail"
	// ClassRefused substitutes a REFUSED response.
	ClassRefused Class = "refused"
	// ClassTruncate strips the response and sets TC=1.
	ClassTruncate Class = "truncate"
	// ClassBadID corrupts the response ID; a correct client discards the
	// datagram and observes a timeout.
	ClassBadID Class = "badid"
	// ClassOutage is a scheduled dark window (timeout for days N..M).
	ClassOutage Class = "outage"
)

// FaultError is the transport error produced by drop-style faults.
type FaultError struct {
	Class  Class
	Server string
}

// Error implements error.
func (e *FaultError) Error() string {
	return fmt.Sprintf("faultnet: injected %s at %s", e.Class, e.Server)
}

// Timeout marks the error as a timeout (net.Error convention), which is
// what every drop-style fault looks like from the client side.
func (e *FaultError) Timeout() bool { return true }

// Rule declares the faults for servers matching a pattern. Probabilities
// are cumulative bands over one uniform draw per attempt, so Loss=0.1,
// ServFail=0.1 means 10% lost, a further 10% SERVFAIL, 80% clean.
type Rule struct {
	// Pattern selects server addresses: "*" matches all, a leading "*."
	// matches any address with that suffix ("*.flaky.example"), anything
	// else matches exactly. The first matching rule wins.
	Pattern string

	// Loss is the probability an exchange is dropped outright.
	Loss float64
	// Timeout is the probability of an explicit timeout (a distinct
	// FaultError class; otherwise the same observable as Loss).
	Timeout float64
	// ServFail / Refused substitute the rcode of an otherwise-successful
	// exchange.
	ServFail float64
	Refused  float64
	// Truncate strips the answer sections and sets TC=1.
	Truncate float64
	// BadID corrupts the response ID (observed as a timeout).
	BadID float64

	// Latency is added to every matched exchange, honoring the context.
	Latency time.Duration

	// OutageFrom/OutageTo declare a scheduled dark window: the server
	// times out on every simulated day in [OutageFrom, OutageTo]. Both
	// zero means no outage.
	OutageFrom, OutageTo simtime.Day
}

// matches reports whether the rule covers addr.
func (r *Rule) matches(addr string) bool {
	switch {
	case r.Pattern == "*":
		return true
	case strings.HasPrefix(r.Pattern, "*."):
		return strings.HasSuffix(addr, r.Pattern[1:])
	default:
		return r.Pattern == addr
	}
}

// hasOutage reports whether the rule declares a dark window.
func (r *Rule) hasOutage() bool { return r.OutageFrom != 0 || r.OutageTo != 0 }

// Injector is the fault-injecting Exchanger middleware.
type Injector struct {
	inner exchange.Exchanger
	rules []Rule
	seed  int64
	// clock supplies the simulated day for outage windows; nil disables
	// outage evaluation.
	clock func() simtime.Day

	mu       sync.Mutex
	attempts map[string]uint64 // per-question deterministic attempt counter
}

// New wraps inner with the rules. The seed fixes the fault schedule; clock
// may be nil when no rule declares outages.
func New(inner exchange.Exchanger, seed int64, clock func() simtime.Day, rules ...Rule) *Injector {
	return &Injector{
		inner: inner, rules: rules, seed: seed, clock: clock,
		attempts: make(map[string]uint64),
	}
}

// Middleware adapts the injector for an exchange.Build stack: it binds the
// injector's inner exchanger to whatever layer sits below it and returns
// the injector as the wrapped layer. Construct with New(nil, ...) when the
// transport is supplied by the stack, and place the middleware in
// exchange.Options.Middleware — below the retry budget (so injected faults
// consume attempts like real ones) and below the transport Tap (so they
// count as exchanges and errors like real ones). A Middleware is
// single-use: it rebinds this injector.
func (in *Injector) Middleware() exchange.Middleware {
	return func(next exchange.Exchanger) exchange.Exchanger {
		in.inner = next
		return in
	}
}

// nextAttempt returns the 0-based attempt number for the question key.
func (in *Injector) nextAttempt(key string) uint64 {
	in.mu.Lock()
	defer in.mu.Unlock()
	n := in.attempts[key]
	in.attempts[key] = n + 1
	return n
}

// draw produces the deterministic uniform sample for (key, attempt).
func (in *Injector) draw(key string, attempt uint64) float64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%d", in.seed, key, attempt)
	// FNV-64a avalanches poorly on trailing-byte changes: bumping the
	// attempt number alone barely moves the high bits, so consecutive
	// attempts would draw near-identical samples and a "lost" query would
	// stay lost through every retry. A splitmix64-style finalizer spreads
	// the change across all 64 bits before taking the top 53 for a uniform
	// float64 in [0, 1).
	x := h.Sum64()
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return float64(x>>11) / float64(1<<53)
}

// Exchange implements exchange.Exchanger, injecting faults for matched
// servers and passing everything else straight through.
func (in *Injector) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	var rule *Rule
	for i := range in.rules {
		if in.rules[i].matches(server) {
			rule = &in.rules[i]
			break
		}
	}
	if rule == nil {
		return in.inner.Exchange(ctx, server, q)
	}
	if rule.Latency > 0 {
		timer := time.NewTimer(rule.Latency)
		select {
		case <-ctx.Done():
			timer.Stop()
			return nil, ctx.Err()
		case <-timer.C:
		}
	}
	if rule.hasOutage() && in.clock != nil {
		if day := in.clock(); day >= rule.OutageFrom && day <= rule.OutageTo {
			return nil, &FaultError{Class: ClassOutage, Server: server}
		}
	}
	key := server
	if len(q.Questions) > 0 {
		key = fmt.Sprintf("%s|%s|%d", server, q.Questions[0].Name, q.Questions[0].Type)
	}
	u := in.draw(key, in.nextAttempt(key))
	for _, band := range []struct {
		p     float64
		class Class
	}{
		{rule.Loss, ClassLoss},
		{rule.Timeout, ClassTimeout},
		{rule.ServFail, ClassServFail},
		{rule.Refused, ClassRefused},
		{rule.Truncate, ClassTruncate},
		{rule.BadID, ClassBadID},
	} {
		if u < band.p {
			return in.inject(ctx, server, q, band.class)
		}
		u -= band.p
	}
	return in.inner.Exchange(ctx, server, q)
}

// inject realizes one fault.
func (in *Injector) inject(ctx context.Context, server string, q *dnswire.Message, class Class) (*dnswire.Message, error) {
	switch class {
	case ClassLoss, ClassTimeout, ClassBadID:
		// Lost packet, dead server, or a response the client must discard:
		// all surface as a timeout.
		return nil, &FaultError{Class: class, Server: server}
	case ClassServFail, ClassRefused:
		resp := q.Reply()
		resp.RCode = dnswire.RCodeServerFailure
		if class == ClassRefused {
			resp.RCode = dnswire.RCodeRefused
		}
		return resp, nil
	case ClassTruncate:
		// The server had more than fit the datagram: empty sections, TC=1.
		resp, err := in.inner.Exchange(ctx, server, q)
		if err != nil {
			return nil, err
		}
		tr := q.Reply()
		tr.RCode = resp.RCode
		tr.Authoritative = resp.Authoritative
		tr.Truncated = true
		return tr, nil
	}
	return nil, &FaultError{Class: class, Server: server}
}
