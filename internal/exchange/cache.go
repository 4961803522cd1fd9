package exchange

import (
	"context"
	"sync"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnswire"
)

// CacheOptions selects the message cache in Options; it has no settings.
type CacheOptions struct{}

// cacheMaxEntries bounds the cache size. When full, an arbitrary ~10% of
// entries are evicted to make room — crude, but the sweeps this cache
// serves flush it per chunk, far below the bound.
const cacheMaxEntries = 1 << 18

// Cache is a DNS message cache keyed by (server, qname, qtype, DO bit). An
// entry lives until Flush (or the size bound, which sweeps never reach):
// the scanner flushes on a day change and the sweep on each chunk, so
// within one flush interval the zones it answers for are fixed and the
// cache answers what the server would. Referral responses (delegation NS
// sets riding in the authority section) are entries too, which is what
// lets a per-SLD sweep stop re-asking the TLD the same delegation — one
// TLD round-trip saved per domain per record type.
//
// Only NOERROR and NXDOMAIN answers that are not truncated are stored.
// SERVFAIL, REFUSED and other rcodes, truncated answers and transport
// errors never are, so a transient injected fault can never be pinned into
// the cache and replayed past its moment.
type Cache struct {
	inner Exchanger

	mu      sync.RWMutex
	entries map[key]*dnswire.Message

	hits   atomic.Int64
	misses atomic.Int64
	stores atomic.Int64
}

// NewCache creates the cache middleware over inner.
func NewCache(inner Exchanger) *Cache {
	return &Cache{inner: inner, entries: make(map[key]*dnswire.Message)}
}

// counters snapshots lookups served from the cache, lookups that went
// downstream, and responses admitted.
func (c *Cache) counters() CacheCounters {
	return CacheCounters{Hits: c.hits.Load(), Misses: c.misses.Load(), Stores: c.stores.Load()}
}

// Flush drops every entry; the simulation calls this when it mutates
// zones between measurement days.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[key]*dnswire.Message)
}

// Exchange implements Exchanger with response caching.
func (c *Cache) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	k, ok := queryKey(server, q)
	if !ok {
		return c.inner.Exchange(ctx, server, q)
	}
	c.mu.RLock()
	cached := c.entries[k]
	c.mu.RUnlock()
	if cached != nil {
		c.hits.Add(1)
		return reply(cached, q), nil
	}
	c.misses.Add(1)
	resp, err := c.inner.Exchange(ctx, server, q)
	if err != nil {
		return nil, err
	}
	if !resp.Truncated && (resp.RCode == dnswire.RCodeSuccess || resp.RCode == dnswire.RCodeNameError) {
		c.store(k, resp)
	}
	return resp, nil
}

// store admits one response, evicting arbitrary entries if at capacity.
func (c *Cache) store(k key, resp *dnswire.Message) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.entries) >= cacheMaxEntries {
		drop := cacheMaxEntries / 10
		for victim := range c.entries {
			delete(c.entries, victim)
			if drop--; drop <= 0 {
				break
			}
		}
	}
	c.entries[k] = resp
	c.stores.Add(1)
}
