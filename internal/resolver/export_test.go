package resolver

// Queries returns the number of upstream queries sent.
func (r *Resolver) Queries() int64 { return r.queries.Load() }

// FlushCache clears the referral cache, as after delegations change.
func (r *Resolver) FlushCache() {
	r.mu.Lock()
	r.cache = make(map[string]cacheEntry)
	r.mu.Unlock()
}
