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
// and publish with single pointer stores — an entry into a slot, a
// tombstone over a flushed entry, a rebuilt table (doubled, or the same
// size with the tombstones shed) over the old one — so a fill costs
// amortized O(1) whatever the bucket holds.
//
// Invalidation is driven by zone.Events (see Authoritative.setZone): a
// name-scoped event flushes the enclosing delegation cut's subtree, an
// apex-scoped event flushes only entries that embed apex-owned records,
// and a zone-scoped event flushes everything rendered from that zone.
// Name-scoped events find their entries through the index by name (see
// nameShard), apex-scoped events through per-bucket lists, and visit
// nothing else; zone-scoped events and FlushSubtree scan.
//
// A fill races with concurrent zone mutation, so inserts carry a guard:
// the filler pins the zone's generation (and the handler's publish
// generation) before rendering, and insert rejects the entry if either
// moved — a response rendered from half-mutated state can never be cached.
type ResponseCache struct {
	buckets [cacheBuckets]respBucket
	shards  [cacheBuckets]nameShard
	// perBucketCap bounds each bucket's entries; inserts into a full bucket
	// are rejected (counted, not evicted — the workload is a closed universe
	// of simulated names, so steady state fits or it doesn't).
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
	// live counts the entries a lookup can find; used also counts the
	// tombstones, and is what bounds the table's load.
	live, used int
	// apex lets an apex-scoped flush visit only its candidates: under the
	// hash of an origin, the bucket's apexDep entries rendered from that
	// zone. A list sheds its dead entries when a flush walks it and before it
	// would grow.
	apex entryIndex
}

// respTable is one published generation of a bucket: len(slots) is a power
// of two and at least half the slots are nil, so every probe terminates.
type respTable struct {
	slots []atomic.Pointer[respEntry]
}

// nameShard is one shard of the index by name. The hash of the whole key
// chooses an entry's bucket, which scatters a name's entries; the last two
// labels of its qname choose its shard, and every name at or below a flush
// target of two labels or more shares them with the target. chains holds,
// under the hash of a name directly below a zone's origin, the entries
// rendered from that zone whose qname is that name or below it — the names
// a ScopeName event can carry are such a name or lie below one — chained
// through respEntry.next, so listing an entry allocates nothing.
//
// Lock order: shard, then bucket. A fill holds both; a name-scoped flush
// holds the shard's mutex and takes the bucket's of each entry it removes;
// every other flush goes bucket by bucket.
type nameShard struct {
	mu     sync.Mutex
	chains map[uint64]nameChain
}

// nameChain is one chain of a nameShard. It sheds dead entries whenever it
// is walked, by a flush or by link: n counts the entries chained, kept how
// many the last walk left, and link walks it when that has doubled.
type nameChain struct {
	head    *respEntry
	n, kept int32
}

type respEntry struct {
	// key is the respKey the entry answers and hash its hashKey.
	key  string
	hash uint64
	// wire is the packed response with ID zeroed and RD cleared.
	wire []byte
	// origin of the zone the response was rendered from.
	origin string
	// apexDep marks responses embedding apex-owned records (SOA in negative
	// answers, apex RRsets): the only entries a ScopeApex event flushes.
	apexDep bool
	// next chains the entry in its shard and belongs to the shard mutex.
	// dead is set, under the bucket mutex, once the entry is flushed or
	// replaced.
	next *respEntry
	dead atomic.Bool
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

// tombstone marks a slot whose entry was flushed: a probe passes over it
// (it matches no key — keys are never empty) instead of stopping.
var tombstone = new(respEntry)

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
	per := maxEntries / cacheBuckets
	if per < 4 {
		per = 4
	}
	c := &ResponseCache{perBucketCap: per}
	for i := range c.buckets {
		b := &c.buckets[i]
		b.table.Store(&respTable{slots: make([]atomic.Pointer[respEntry], minTableSlots)})
		b.apex = make(entryIndex)
		c.shards[i].chains = make(map[uint64]nameChain)
	}
	return c
}

// respKey builds the cache key into buf: qname bytes, two qtype bytes, one
// EDNS-state byte.
func respKey(buf []byte, qname []byte, qtype dnswire.Type, edns byte) []byte {
	buf = append(buf[:0], qname...)
	return append(buf, byte(qtype>>8), byte(qtype), edns)
}

// keyQName recovers the qname portion of a key.
func keyQName(key string) string { return key[:len(key)-3] }

func hashKey(b []byte) uint64 { return fnv(b, 0) }

// fnv is the FNV-1a hash of name[from:].
func fnv[T string | []byte](name T, from int) uint64 {
	h := uint64(14695981039346656037)
	for i := from; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h
}

// shardOf picks the index shard of a name: by its last two labels.
func shardOf[T string | []byte](c *ResponseCache, name T) *nameShard {
	from := 0
	for i, dots := len(name)-1, 0; i >= 0; i-- {
		if name[i] == '.' {
			if dots++; dots == 2 {
				from = i + 1
				break
			}
		}
	}
	return &c.shards[fnv(name, from)&(cacheBuckets-1)]
}

// emptySlot returns the first empty slot of h's probe sequence: where a key
// absent from a tombstone-free table goes.
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

// lookup returns the entry for key, or nil. Lock-free.
func (c *ResponseCache) lookup(key []byte) *respEntry {
	h := hashKey(key)
	t := c.buckets[h&(cacheBuckets-1)].table.Load()
	for i := 0; ; i++ {
		e := t.slot(h, i).Load()
		if e == nil {
			c.misses.Add(1)
			return nil
		}
		if e.hash == h && e.key == string(key) {
			c.hits.Add(1)
			return e
		}
	}
}

// insert stores a normalized copy of the rendered response wire under key
// unless guard reports the world moved since the response was rendered or
// the bucket is full, and returns the entry stored (nil when rejected). The
// entry is built only once both checks have passed: a rejected fill
// allocates nothing. guard runs under the shard and bucket mutexes, after
// which no invalidation for the pinned state can be missed: events fire
// after the mutation's generation bump, and every flush of this entry takes
// one of the two, so either guard sees the bump (reject) or the event's
// flush runs after this insert (delete).
func (c *ResponseCache) insert(key, wire []byte, origin string, apexDep bool, guard func() bool) *respEntry {
	h := hashKey(key)
	s := shardOf(c, key[:len(key)-3])
	b := &c.buckets[h&(cacheBuckets-1)]
	s.mu.Lock()
	defer s.mu.Unlock()
	b.mu.Lock()
	defer b.mu.Unlock()
	if !guard() {
		c.rejected.Add(1)
		return nil
	}
	// Probe to the key or to the empty slot that ends its sequence, noting
	// the first tombstone on the way: a new key reuses it.
	t := b.table.Load()
	var at, free *atomic.Pointer[respEntry]
	var old *respEntry
	for i := 0; ; i++ {
		at = t.slot(h, i)
		if old = at.Load(); old == nil || old.hash == h && old.key == string(key) {
			break
		}
		if old == tombstone && free == nil {
			free = at
		}
	}
	if old == nil && b.live >= c.perBucketCap {
		c.rejected.Add(1)
		return nil
	}
	e := newRespEntry(key, wire)
	e.hash, e.origin, e.apexDep = h, origin, apexDep
	switch {
	case old != nil: // replace in place
		old.dead.Store(true)
	case free != nil:
		at = free
		b.live++
	case (b.used+1)*2 > len(t.slots):
		// The table is half full of entries and tombstones: rebuild it with
		// room for the live entries to double, and take a slot there.
		at = b.rebuild(t).emptySlot(h)
		b.live++
		b.used++
	default:
		b.live++
		b.used++
	}
	s.link(e)
	b.list(e)
	at.Store(e)
	c.fills.Add(1)
	return e
}

// rebuild publishes a tombstone-free copy of t sized so that the live
// entries, plus the one about to be inserted, fill at most a quarter of it.
func (b *respBucket) rebuild(t *respTable) *respTable {
	n := minTableSlots
	for n < 4*(b.live+1) {
		n <<= 1
	}
	next := &respTable{slots: make([]atomic.Pointer[respEntry], n)}
	for i := range t.slots {
		e := t.slots[i].Load()
		if e == nil || e == tombstone {
			continue
		}
		next.emptySlot(e.hash).Store(e)
	}
	b.used = b.live
	b.table.Store(next)
	return next
}

// remove finds live entry e in the table and drops it. b.mu held.
func (b *respBucket) remove(t *respTable, e *respEntry) {
	for i := 0; ; i++ {
		s := t.slot(e.hash, i)
		if cur := s.Load(); cur == e {
			b.drop(s, e)
			return
		} else if cur == nil {
			panic("dnsserver: live cache entry missing from its table")
		}
	}
}

// drop leaves a tombstone in the slot that holds e and marks e dead; the
// list and the chain that hold it shed it later. b.mu held.
func (b *respBucket) drop(s *atomic.Pointer[respEntry], e *respEntry) {
	s.Store(tombstone)
	b.live--
	e.dead.Store(true)
}

// entryIndex maps the hash of an origin to a bucket's candidate list, a
// nameShard's chains that of a name to a chain's head. Being hashes, either
// may hold strangers; a flush takes them as candidates and its predicate
// decides.
type entryIndex map[uint64][]*respEntry

// childOf returns the ancestor of name (or name itself) directly below
// origin, which name must be strictly below.
func childOf(name, origin string) string {
	above := len(name) - len(origin)
	if origin != "" {
		above-- // the dot before origin
	}
	return name[strings.LastIndexByte(name[:above], '.')+1:]
}

// link chains e, which is about to go live, in its shard. s.mu held.
func (s *nameShard) link(e *respEntry) {
	qname := keyQName(e.key)
	if len(qname) <= len(e.origin) {
		return
	}
	k := fnv(childOf(qname, e.origin), 0)
	c := s.chains[k]
	e.next, c.head = c.head, e
	c.n++
	s.chains[k] = c
	// Walking when the chain has doubled keeps the shedding amortized O(1)
	// per entry and the chain within twice what was live at the last walk.
	if c.n > 2*max(c.kept, 8) {
		s.keep(k, func(e *respEntry) bool { return !e.dead.Load() })
	}
}

// keep filters chain k in place, dropping the key when nothing is left.
// s.mu held.
func (s *nameShard) keep(k uint64, keep func(*respEntry) bool) {
	c := s.chains[k]
	for at := &c.head; *at != nil; {
		if e := *at; keep(e) {
			at = &e.next
		} else {
			*at, e.next = e.next, nil
			c.n--
		}
	}
	if c.kept = c.n; c.head == nil {
		delete(s.chains, k)
	} else {
		s.chains[k] = c
	}
}

// list enters e in the bucket's apex lists. b.mu held.
func (b *respBucket) list(e *respEntry) {
	if !e.apexDep {
		return
	}
	k := fnv(e.origin, 0)
	l := b.apex[k]
	if len(l) == cap(l) {
		// Shedding the dead before growing keeps that amortized O(1) per
		// entry and the list within twice its live size.
		l = b.apex.keep(k, l, func(e *respEntry) bool { return !e.dead.Load() })
	}
	b.apex[k] = append(l, e)
}

// applyEvent translates one zone mutation event into the narrowest flush.
func (c *ResponseCache) applyEvent(z *zone.Zone, ev zone.Event) {
	origin := z.Origin
	switch ev.Scope {
	case zone.ScopeZone:
		c.flushWhere(func(e *respEntry) bool { return e.origin == origin })
	case zone.ScopeApex:
		c.flushListed(fnv(origin, 0), func(e *respEntry) bool {
			return e.apexDep && e.origin == origin
		})
	default: // ScopeName
		// A mutation at or under a delegation cut invalidates every referral
		// the cut covers (NS set, DS proof, glue travel with each of them),
		// so widen the flush to the cut's whole subtree.
		target := ev.Name
		if cut, _ := z.DelegationFor(ev.Name); cut != "" {
			target = cut
		}
		match := func(e *respEntry) bool {
			return e.origin == origin && dnswire.IsSubdomain(keyQName(e.key), target)
		}
		switch {
		case len(target) <= len(origin):
			c.flushWhere(match) // not a name the index chains entries under
		case strings.Contains(target, "."):
			c.flushChain(shardOf(c, target), fnv(childOf(target, origin), 0), match)
		default: // a TLD in the root zone: what lies below it is in every shard
			for i := range c.shards {
				c.flushChain(&c.shards[i], fnv(target, 0), match)
			}
		}
	}
}

// FlushSubtree removes every entry whose qname is at or below name,
// regardless of origin zone; used when a zone is installed or removed and
// previous renderings (including from an enclosing zone) may be stale.
func (c *ResponseCache) FlushSubtree(name string) {
	c.flushWhere(func(e *respEntry) bool {
		return dnswire.IsSubdomain(keyQName(e.key), name)
	})
}

// flushChain removes the entries match accepts among those on chain k of
// shard s, and visits nothing else.
func (c *ResponseCache) flushChain(s *nameShard, k uint64, match func(*respEntry) bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.keep(k, func(e *respEntry) bool {
		if !e.dead.Load() && match(e) {
			b := &c.buckets[e.hash&(cacheBuckets-1)]
			b.mu.Lock()
			if !e.dead.Load() { // still, now that no other flush can have it
				b.remove(b.table.Load(), e)
				c.flushed.Add(1)
			}
			b.mu.Unlock()
		}
		return !e.dead.Load()
	})
}

// flushListed removes the entries match accepts among those listed under k,
// visiting only that list in each bucket.
func (c *ResponseCache) flushListed(k uint64, match func(*respEntry) bool) {
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		if l := b.apex[k]; l != nil {
			t := b.table.Load()
			b.apex.keep(k, l, func(e *respEntry) bool {
				if !e.dead.Load() && match(e) {
					b.remove(t, e)
					c.flushed.Add(1)
				}
				return !e.dead.Load()
			})
		}
		b.mu.Unlock()
	}
}

// keep filters list l of index key k in place, dropping the key when nothing
// is left, and returns what stayed.
func (ix entryIndex) keep(k uint64, l []*respEntry, keep func(*respEntry) bool) []*respEntry {
	kept := l[:0]
	for _, e := range l {
		if keep(e) {
			kept = append(kept, e)
		}
	}
	clear(l[len(kept):])
	if len(kept) == 0 {
		delete(ix, k)
	} else {
		ix[k] = kept
	}
	return kept
}

// flushWhere removes every entry match accepts, scanning the whole cache.
func (c *ResponseCache) flushWhere(match func(*respEntry) bool) {
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		t := b.table.Load()
		for j := range t.slots {
			s := &t.slots[j]
			if e := s.Load(); e != nil && e != tombstone && match(e) {
				b.drop(s, e)
				c.flushed.Add(1)
			}
		}
		b.mu.Unlock()
	}
}

// CacheStats is a point-in-time counter snapshot.
type CacheStats struct {
	Hits     uint64 `json:"hits"`
	Misses   uint64 `json:"misses"`
	Fills    uint64 `json:"fills"`
	Rejected uint64 `json:"rejected"`
	Flushed  uint64 `json:"flushed"`
	Entries  int    `json:"entries"`
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
		s.Entries += b.live
		b.mu.Unlock()
	}
	return s
}
