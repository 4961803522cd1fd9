package dnsserver

import (
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// ResponseCache stores fully packed wire responses keyed by
// (qname, qtype, EDNS state). Entries are normalized — message ID zeroed,
// RD bit cleared — so one rendering serves every client; the hit path
// copies the bytes and patches ID and RD in place.
//
// Each bucket is an open-addressed table of atomic entry pointers. Reads
// are lock-free: a lookup loads the bucket's table and probes linearly
// until it finds the key or an empty slot. Writers hold the bucket mutex
// and publish with single pointer stores — an entry into an empty slot or
// over the entry it replaces, a rebuilt table over the old one. No slot is
// ever emptied in place, so a fill costs amortized O(1).
//
// Invalidation is lazy, by version stamp. The cache keeps a fixed array of
// counters, the stamps; a zone event only bumps the stamps of the scope it
// names (see applyEvent). A fill reads, before rendering, the stamps its
// answer depends on — its zone's, its zone apex's, and that of the name
// directly below the origin that covers its qname — and the entry keeps
// their sum. An entry whose stamps moved since is stale: a lookup that
// finds it misses, and the refill replaces it in place. A bucket at its
// cap drops its stale entries before it rejects a new key.
//
// This is sound because zone events fire after their mutation commits: a
// fill that rendered the state before a mutation read its stamps before
// the mutation's bump, so it is stale from the bump on, whenever it is
// stored. Zone-set changes bump stamps too (see Authoritative.setZone).
type ResponseCache struct {
	buckets [cacheBuckets]respBucket
	// stamps is a power of two plus one counters: a stamp is picked by the
	// hash of its scope (stampOf), and the last one, quiet, is never bumped —
	// it stands in for a dependency an entry does not have.
	stamps []atomic.Uint64
	quiet  uint32
	// epoch counts bumps, so a bucket at its cap looks for stale entries
	// only when some may have gone stale since it last looked.
	epoch atomic.Uint64
	// perBucketCap bounds each bucket's entries; a new key for a full bucket
	// with nothing stale is rejected (counted, not evicted — the workload is
	// a closed universe of simulated names, so steady state fits or it
	// doesn't).
	perBucketCap int

	hits     atomic.Uint64
	misses   atomic.Uint64
	fills    atomic.Uint64
	rejected atomic.Uint64
	flushed  atomic.Uint64
}

const (
	cacheBucketBits = 8
	cacheBuckets    = 1 << cacheBucketBits
	// minTableSlots is a bucket's initial table size (a power of two).
	minTableSlots = 8
)

type respBucket struct {
	// table is all a lookup reads. The fields below it are writer state.
	table atomic.Pointer[respTable]

	mu sync.Mutex
	// n counts the entries in table, stale ones included.
	n int
	// shedAt is the epoch at which the bucket last looked for stale entries.
	shedAt uint64
}

// respTable is one published generation of a bucket: len(slots) is a power
// of two and at least half the slots are nil, so every probe terminates.
type respTable struct {
	slots []atomic.Pointer[respEntry]
}

type respEntry struct {
	// key is the respKey the entry answers and hash its hashKey.
	key  string
	hash uint64
	// wire is the packed response with ID zeroed and RD cleared.
	wire []byte
	// deps are the stamps the response was rendered under, and seen their
	// sum then: the entry is fresh while the sum has not moved.
	deps [3]uint32
	seen uint64
}

// slab is a respEntry and the bytes its key and wire point into, so that an
// entry is one allocation (two beyond the largest slab).
type slab[B any] struct {
	respEntry
	buf B
}

// newRespEntry builds the entry for key holding a normalized copy of the
// rendered response wire.
func newRespEntry(key, wire []byte) *respEntry {
	var e *respEntry
	var buf []byte
	switch n := len(key) + len(wire); {
	case n <= 128:
		s := new(slab[[128]byte])
		e, buf = &s.respEntry, s.buf[:]
	case n <= 256:
		s := new(slab[[256]byte])
		e, buf = &s.respEntry, s.buf[:]
	case n <= 384:
		s := new(slab[[384]byte])
		e, buf = &s.respEntry, s.buf[:]
	case n <= 768:
		s := new(slab[[768]byte])
		e, buf = &s.respEntry, s.buf[:]
	default:
		e, buf = new(respEntry), make([]byte, n)
	}
	n := copy(buf, key)
	// The slab's bytes are written here and never again, which is what a
	// string asks of its bytes.
	e.key = unsafe.String(&buf[0], n)
	e.wire = buf[n : n+len(wire) : n+len(wire)]
	copy(e.wire, wire)
	e.wire[0], e.wire[1] = 0, 0
	e.wire[2] &^= flagRDByte
	return e
}

// EDNS-state key byte: responses differ by OPT presence and DO bit, but not
// by the client's advertised size (Reply pins the responder payload).
const (
	ednsNone  = byte(0)
	ednsPlain = byte(1)
	ednsDO    = byte(2)
)

func ednsState(hasEDNS, dnssecOK bool) byte {
	switch {
	case !hasEDNS:
		return ednsNone
	case dnssecOK:
		return ednsDO
	}
	return ednsPlain
}

// NewResponseCache creates a cache bounded to roughly maxEntries entries
// (0 means the 256k default).
func NewResponseCache(maxEntries int) *ResponseCache {
	if maxEntries <= 0 {
		maxEntries = 1 << 18
	}
	// A stamp per four entries: a delegation's entries (its types, EDNS
	// states and the names below it) share one.
	n := 64
	for n < maxEntries/4 {
		n <<= 1
	}
	c := &ResponseCache{
		stamps:       make([]atomic.Uint64, n+1),
		quiet:        uint32(n),
		perBucketCap: max(maxEntries/cacheBuckets, 4),
	}
	for i := range c.buckets {
		c.buckets[i].table.Store(&respTable{slots: make([]atomic.Pointer[respEntry], minTableSlots)})
	}
	return c
}

// respKey builds the cache key into buf: qname bytes, two qtype bytes, one
// EDNS-state byte.
func respKey(buf []byte, qname []byte, qtype dnswire.Type, edns byte) []byte {
	buf = append(buf[:0], qname...)
	return append(buf, byte(qtype>>8), byte(qtype), edns)
}

const (
	fnvBasis = 14695981039346656037
	fnvPrime = 1099511628211
)

func hashKey(b []byte) uint64 { return fnv(fnvBasis, b) }

// fnv continues the FNV-1a hash h over s.
func fnv[T string | []byte](h uint64, s T) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime
	}
	return h
}

// The scopes a stamp covers in one zone.
const (
	scopeZone = iota
	scopeApex
	scopeName
)

// stampOf picks the stamp of one scope of the zone at origin: the whole
// zone, its apex, or (scopeName) the name child directly below the origin
// and everything below that. Two scopes may share a stamp; a bump of one
// then also invalidates the other's entries, which is safe.
func (c *ResponseCache) stampOf(origin string, scope byte, child string) uint32 {
	h := fnv((fnv(fnvBasis, origin)^uint64(scope))*fnvPrime, child)
	return uint32(h^h>>32) & (c.quiet - 1)
}

// childOf returns the ancestor of name (or name itself) directly below
// origin, which name must be strictly below.
func childOf(name, origin string) string {
	above := len(name) - len(origin)
	if origin != "" {
		above-- // the dot before origin
	}
	return name[strings.LastIndexByte(name[:above], '.')+1:]
}

// bump moves stamp s, and the epoch after it.
func (c *ResponseCache) bump(s uint32) {
	c.stamps[s].Add(1)
	c.epoch.Add(1)
}

// pin is what a fill reads before rendering: the stamps an answer for qname
// out of the zone at origin may depend on — the zone's, the apex's and,
// below the apex, the covering child's — and their values.
type pin struct {
	deps [3]uint32
	seen [3]uint64
}

func (c *ResponseCache) pin(origin, qname string) pin {
	p := pin{deps: [3]uint32{c.stampOf(origin, scopeZone, ""), c.stampOf(origin, scopeApex, ""), c.quiet}}
	if len(qname) > len(origin) {
		p.deps[2] = c.stampOf(origin, scopeName, childOf(qname, origin))
	}
	for i, s := range p.deps {
		p.seen[i] = c.stamps[s].Load()
	}
	return p
}

// sum adds up the current values of the stamps at. Stamps only grow, so
// the sum equals an earlier one only if none of them moved in between.
func (c *ResponseCache) sum(at *[3]uint32) uint64 {
	return c.stamps[at[0]].Load() + c.stamps[at[1]].Load() + c.stamps[at[2]].Load()
}

func (c *ResponseCache) fresh(e *respEntry) bool { return c.sum(&e.deps) == e.seen }

// emptySlot returns the first empty slot of h's probe sequence: where a key
// absent from the table goes.
func (t *respTable) emptySlot(h uint64) *atomic.Pointer[respEntry] {
	for i := 0; ; i++ {
		if s := t.slot(h, i); s.Load() == nil {
			return s
		}
	}
}

// slot returns the i-th slot of the probe sequence for hash h. The low
// hash bits chose the bucket, so the sequence starts from the bits above.
func (t *respTable) slot(h uint64, i int) *atomic.Pointer[respEntry] {
	return &t.slots[(h>>cacheBucketBits+uint64(i))&uint64(len(t.slots)-1)]
}

// find probes for key: its slot and entry, or the empty slot that ends its
// sequence and nil.
func (t *respTable) find(h uint64, key []byte) (*atomic.Pointer[respEntry], *respEntry) {
	for i := 0; ; i++ {
		s := t.slot(h, i)
		if e := s.Load(); e == nil || e.hash == h && e.key == string(key) {
			return s, e
		}
	}
}

// lookup returns the fresh entry for key, or nil. Lock-free.
func (c *ResponseCache) lookup(key []byte) *respEntry {
	h := hashKey(key)
	if _, e := c.buckets[h&(cacheBuckets-1)].table.Load().find(h, key); e != nil && c.fresh(e) {
		c.hits.Add(1)
		return e
	}
	c.misses.Add(1)
	return nil
}

// insert stores a normalized copy of the response wire, rendered for key
// under pin p, and returns the entry stored. apexDep reports that the
// response embeds apex-owned records (the SOA of a negative answer, an apex
// RRset), the only entries an apex event invalidates. The fill is rejected
// (nil) when a stamp of p moved during the rendering, or when key is new to
// a bucket at its cap with nothing stale to drop; a rejected fill allocates
// nothing.
func (c *ResponseCache) insert(key, wire []byte, p pin, apexDep bool) *respEntry {
	if !apexDep {
		p.deps[1], p.seen[1] = c.quiet, 0
	}
	seen := p.seen[0] + p.seen[1] + p.seen[2]
	h := hashKey(key)
	b := &c.buckets[h&(cacheBuckets-1)]
	b.mu.Lock()
	defer b.mu.Unlock()
	if c.sum(&p.deps) != seen {
		c.rejected.Add(1)
		return nil
	}
	t := b.table.Load()
	at, old := t.find(h, key)
	switch {
	case old != nil: // replace in place
		if !c.fresh(old) {
			c.flushed.Add(1)
		}
	case b.n >= c.perBucketCap && !c.shed(b):
		c.rejected.Add(1)
		return nil
	default:
		if t = b.table.Load(); 2*(b.n+1) > len(t.slots) {
			t = c.rebuild(b, t)
		}
		at = t.emptySlot(h)
		b.n++
	}
	e := newRespEntry(key, wire)
	e.hash, e.deps, e.seen = h, p.deps, seen
	at.Store(e)
	c.fills.Add(1)
	return e
}

// shed rebuilds bucket b, which is at its cap, without its stale entries
// and reports whether there were any. Only a bump makes an entry stale, so
// the bucket looks only if the epoch moved since it last did. b.mu held.
func (c *ResponseCache) shed(b *respBucket) bool {
	epoch := c.epoch.Load()
	if epoch == b.shedAt {
		return false
	}
	b.shedAt = epoch
	t := b.table.Load()
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil && !c.fresh(e) {
			c.rebuild(b, t)
			return true
		}
	}
	return false
}

// rebuild publishes a copy of b's table t without its stale entries, sized
// so that the fresh ones plus one more fill at most a quarter of it, and
// counts the stale ones as flushed. b.mu held.
func (c *ResponseCache) rebuild(b *respBucket, t *respTable) *respTable {
	live := 0
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil && c.fresh(e) {
			live++
		}
	}
	n := minTableSlots
	for n < 4*(live+1) {
		n <<= 1
	}
	next := &respTable{slots: make([]atomic.Pointer[respEntry], n)}
	kept := 0
	for i := range t.slots {
		// An entry may have gone stale since it was counted, never fresh.
		if e := t.slots[i].Load(); e != nil && c.fresh(e) {
			next.emptySlot(e.hash).Store(e)
			kept++
		}
	}
	c.flushed.Add(uint64(b.n - kept))
	b.n = kept
	b.table.Store(next)
	return next
}

// applyEvent bumps the stamp of the scope one committed mutation of the
// zone at origin names. A name event below the apex bumps the stamp of the
// name directly below the origin that covers it: a mutation at or under a
// delegation cut invalidates every referral the cut covers (NS set, DS
// proof and glue travel with each of them), and the cut lies at or below
// that name.
func (c *ResponseCache) applyEvent(origin string, ev zone.Event) {
	switch {
	case ev.Scope == zone.ScopeApex:
		c.bump(c.stampOf(origin, scopeApex, ""))
	case ev.Scope == zone.ScopeName && len(ev.Name) > len(origin):
		c.bump(c.stampOf(origin, scopeName, childOf(ev.Name, origin)))
	default:
		c.bump(c.stampOf(origin, scopeZone, ""))
	}
}

// zoneMoved bumps what installing or removing the zone at origin moves:
// every entry rendered from a zone at origin, and in each zone above it
// every entry for a name at or below origin — an enclosing zone may have
// answered there before the zone arrived, or will answer once it is gone.
func (c *ResponseCache) zoneMoved(origin string) {
	c.bump(c.stampOf(origin, scopeZone, ""))
	for above := origin; above != ""; {
		above, _ = dnswire.Parent(above)
		c.bump(c.stampOf(above, scopeName, childOf(origin, above)))
	}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	// Hits found a fresh entry.
	Hits uint64 `json:"hits"`
	// Misses found no entry, or a stale one.
	Misses uint64 `json:"misses"`
	// Fills stored an entry, new or in place of the key's previous one.
	Fills uint64 `json:"fills"`
	// Rejected fills stored nothing: the key was new to a bucket at its
	// cap with nothing stale to drop, or the answer went stale while it was
	// rendered (a stamp or the zone set moved).
	Rejected uint64 `json:"rejected"`
	// Flushed counts stale entries dropped from a rebuilt bucket or
	// replaced by a refill.
	Flushed uint64 `json:"flushed"`
	// Entries counts the resident entries, stale ones not yet dropped or
	// replaced included.
	Entries int `json:"entries"`
}

// Stats snapshots the cache counters and current entry count.
func (c *ResponseCache) Stats() CacheStats {
	s := CacheStats{
		Hits:     c.hits.Load(),
		Misses:   c.misses.Load(),
		Fills:    c.fills.Load(),
		Rejected: c.rejected.Load(),
		Flushed:  c.flushed.Load(),
	}
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		s.Entries += b.n
		b.mu.Unlock()
	}
	return s
}
