package resolver

import "securepki.org/registrarsec/internal/exchange"

// Stack exposes the assembled exchange stack (per-layer counters, server
// health); nil when the resolver was built without an Exchange.
func (r *Resolver) Stack() *exchange.Stack { return r.stack }

// Queries returns the number of upstream queries sent.
func (r *Resolver) Queries() int64 { return r.queries.Load() }

// FlushCache clears the referral cache, as after delegations change.
func (r *Resolver) FlushCache() {
	r.mu.Lock()
	r.cache = make(map[string]cacheEntry)
	r.mu.Unlock()
}
