package exchange

import (
	"errors"

	"securepki.org/registrarsec/internal/retry"
)

// Options selects which middleware layers Build assembles around a
// transport. The zero value (plus a Transport) yields a bare accounting
// stack: Tap → Transport.
type Options struct {
	// Transport is the innermost Exchanger (required): NetExchanger for
	// real networks, MemNet for the simulation.
	Transport Exchanger

	// Middleware is applied between the Tap and the Transport, first
	// element outermost. This is where a fault injector composes: below the
	// retry budget (so injected faults consume attempts exactly as real ones
	// would) and below the Tap (so every attempt the budget spends, injected
	// or real, is one accounted exchange, and each failed one an accounted
	// error).
	Middleware []Middleware

	// Retry, when non-nil, adds the Retry layer with this policy.
	Retry *retry.Policy

	// Dedup adds the in-flight singleflight layer.
	Dedup bool

	// Cache, when non-nil, adds the message cache.
	Cache *CacheOptions
}

// Stack is an assembled exchange path. It is itself an Exchanger (the
// outermost layer), with typed handles to each optional layer — nil when
// the layer was not selected — so callers can read counters or flush the
// cache without re-plumbing.
type Stack struct {
	Exchanger

	Transport Exchanger
	Tap       *Tap
	Retry     *Retry
	Dedup     *Dedup
	Cache     *Cache
}

// Build assembles the middleware stack in the package's canonical order,
//
//	Cache → Dedup → Retry → Tap → opts.Middleware... → Transport,
//
// including only the layers Options selects.
func Build(opts Options) (*Stack, error) {
	if opts.Transport == nil {
		return nil, errors.New("exchange: Build requires a Transport")
	}
	s := &Stack{Transport: opts.Transport}
	ex := opts.Transport
	for i := len(opts.Middleware) - 1; i >= 0; i-- {
		ex = opts.Middleware[i](ex)
	}
	s.Tap = NewTap(ex)
	ex = s.Tap
	if opts.Retry != nil {
		s.Retry = NewRetry(ex, *opts.Retry)
		ex = s.Retry
	}
	if opts.Dedup {
		s.Dedup = NewDedup(ex)
		ex = s.Dedup
	}
	if opts.Cache != nil {
		s.Cache = NewCache(ex)
		ex = s.Cache
	}
	s.Exchanger = ex
	return s, nil
}

// Counters snapshots every present layer's accounting (absent layers
// report zeros).
func (s *Stack) Counters() Counters {
	var c Counters
	if s.Tap != nil {
		c.Transport = s.Tap.counters()
	}
	if s.Cache != nil {
		c.Cache = s.Cache.counters()
	}
	if s.Dedup != nil {
		c.Dedup = s.Dedup.counters()
	}
	if s.Retry != nil {
		c.Retry = s.Retry.counters()
	}
	return c
}

// FlushCache drops every cached response (no-op without a Cache layer).
// Simulations call it when zones mutate between measurement days.
func (s *Stack) FlushCache() {
	if s.Cache != nil {
		s.Cache.Flush()
	}
}
