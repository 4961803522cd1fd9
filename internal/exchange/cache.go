package exchange

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// CacheOptions tunes the message cache.
type CacheOptions struct {
	// Now supplies the cache's clock (default time.Now). Tests inject a
	// fake clock to prove TTL expiry; sweeps under the simulation leave
	// the default, where a day's worth of queries completes well inside
	// the shortest real TTL.
	Now func() time.Time
}

const (
	// cacheNegTTL caps the RFC 2308 negative-caching TTL taken from the
	// SOA, mirroring common resolver practice. Positive answers live for
	// their record TTLs, uncapped.
	cacheNegTTL = time.Hour
	// cacheMaxEntries bounds the cache size. When full, an arbitrary ~10%
	// of entries are evicted to make room — crude, but the sweeps this
	// cache serves have working sets far below the bound.
	cacheMaxEntries = 1 << 18
)

// Cache is a TTL-honoring DNS message cache keyed by (server, qname,
// qtype, DO bit): positive answers live for the minimum TTL of their
// records, and NXDOMAIN/NODATA answers are negatively cached per RFC 2308
// using the authority SOA's minimum. Referral responses (delegation NS
// sets riding in the authority section) are positive entries too, which is
// what lets a per-SLD sweep stop re-asking the TLD the same delegation —
// one TLD round-trip saved per domain per record type.
//
// Deliberately never cached: truncated responses, SERVFAIL/REFUSED and
// other non-NOERROR/NXDOMAIN rcodes, transport errors, and responses
// carrying no usable TTL. A transient injected fault therefore can never
// be pinned into the cache and replayed past its moment.
type Cache struct {
	inner Exchanger
	opts  CacheOptions

	mu      sync.RWMutex
	entries map[key]cacheEntry

	hits    atomic.Int64
	misses  atomic.Int64
	stores  atomic.Int64
	expired atomic.Int64
}

// cacheEntry is one stored response and its absolute expiry.
type cacheEntry struct {
	resp    *dnswire.Message
	expires time.Time
}

// NewCache creates the cache middleware over inner.
func NewCache(inner Exchanger, opts CacheOptions) *Cache {
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Cache{inner: inner, opts: opts, entries: make(map[key]cacheEntry)}
}

// counters snapshots lookups served from the cache, lookups that went
// downstream, responses admitted, and lookups that found only a stale
// entry (counted within Misses as well).
func (c *Cache) counters() CacheCounters {
	return CacheCounters{Hits: c.hits.Load(), Misses: c.misses.Load(), Stores: c.stores.Load(), Expired: c.expired.Load()}
}

// Flush drops every entry; the simulation calls this when it mutates
// zones between measurement days.
func (c *Cache) Flush() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = make(map[key]cacheEntry)
}

// Exchange implements Exchanger with TTL-honoring response caching.
func (c *Cache) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	k, ok := queryKey(server, q)
	if !ok {
		return c.inner.Exchange(ctx, server, q)
	}
	now := c.opts.Now()
	c.mu.RLock()
	e, found := c.entries[k]
	c.mu.RUnlock()
	if found {
		if now.Before(e.expires) {
			c.hits.Add(1)
			return reply(e.resp, q), nil
		}
		c.expired.Add(1)
		c.mu.Lock()
		// Re-check under the write lock: a concurrent refresh may have
		// already replaced the stale entry.
		if cur, ok := c.entries[k]; ok && !now.Before(cur.expires) {
			delete(c.entries, k)
		}
		c.mu.Unlock()
	}
	c.misses.Add(1)
	resp, err := c.inner.Exchange(ctx, server, q)
	if err != nil {
		return nil, err
	}
	if ttl, cacheable := c.responseTTL(resp); cacheable {
		c.store(k, resp, now.Add(ttl))
	}
	return resp, nil
}

// store admits one response, evicting arbitrary entries if at capacity.
func (c *Cache) store(k key, resp *dnswire.Message, expires time.Time) {
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
	c.entries[k] = cacheEntry{resp: resp, expires: expires}
	c.stores.Add(1)
}

// responseTTL decides cacheability and lifetime for one response.
func (c *Cache) responseTTL(resp *dnswire.Message) (time.Duration, bool) {
	if resp.Truncated {
		return 0, false
	}
	switch resp.RCode {
	case dnswire.RCodeSuccess:
		if minTTL, ok := minRecordTTL(resp); ok {
			ttl := time.Duration(minTTL) * time.Second
			return ttl, ttl > 0
		}
		// NODATA with no records beyond an OPT: negative-cacheable only
		// when an SOA vouches for it — handled below, but minRecordTTL
		// already failed to find any non-OPT record, so look for the SOA
		// explicitly (it would have been found). No SOA → uncacheable.
		return 0, false
	case dnswire.RCodeNameError:
		if ttl, ok := negativeTTL(resp); ok {
			if ttl > cacheNegTTL {
				ttl = cacheNegTTL
			}
			return ttl, ttl > 0
		}
		return 0, false
	default:
		// SERVFAIL, REFUSED, NOTIMP…: transient server conditions. RFC
		// 2308 §7 permits brief caching; we decline entirely so a flaky
		// moment is never replayed as policy.
		return 0, false
	}
}

// minRecordTTL returns the minimum TTL across every non-OPT record in the
// message; ok is false when there are none. An NXDOMAIN/NODATA SOA in the
// authority participates normally — RFC 2308 treats it as the negative
// TTL bound, and for positive answers it only ever lowers the minimum.
func minRecordTTL(m *dnswire.Message) (uint32, bool) {
	var min uint32
	found := false
	for _, sec := range [][]*dnswire.RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if rr.Type == dnswire.TypeOPT {
				continue // the OPT "TTL" field carries flags, not a lifetime
			}
			ttl := rr.TTL
			if rr.Type == dnswire.TypeSOA {
				// RFC 2308: the negative/default lifetime is the lesser of
				// the SOA minimum and the SOA record's own TTL.
				if soa, ok := rr.Data.(*dnswire.SOA); ok && soa.Minimum < ttl {
					ttl = soa.Minimum
				}
			}
			if !found || ttl < min {
				min, found = ttl, true
			}
		}
	}
	return min, found
}

// negativeTTL extracts the RFC 2308 negative-caching TTL from an NXDOMAIN
// response: min(SOA TTL, SOA.Minimum) of the authority SOA.
func negativeTTL(m *dnswire.Message) (time.Duration, bool) {
	for _, rr := range m.Authority {
		soa, ok := rr.Data.(*dnswire.SOA)
		if !ok {
			continue
		}
		ttl := rr.TTL
		if soa.Minimum < ttl {
			ttl = soa.Minimum
		}
		return time.Duration(ttl) * time.Second, true
	}
	return 0, false
}
