package dnsserver

import (
	"strings"
	"sync"
	"sync/atomic"

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
// Name- and apex-scoped events find their entries through per-bucket
// indexes and visit nothing else; zone-scoped events and FlushSubtree scan.
//
// A fill races with concurrent zone mutation, so inserts carry a guard:
// the filler pins the zone's generation (and the handler's publish
// generation) before rendering, and insert rejects the entry if either
// moved — a response rendered from half-mutated state can never be cached.
type ResponseCache struct {
	buckets [cacheBuckets]respBucket
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
	// index lets a name- or apex-scoped flush visit only its candidates:
	// nameList and apexList give the keys an entry is listed under. Lists
	// shed dead entries lazily: listed counts every membership, listedLive
	// those of live entries, and list sweeps the index when the dead
	// outnumber the living.
	index              entryIndex
	listed, listedLive int
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
	// origin of the zone the response was rendered from.
	origin string
	// apexDep marks responses embedding apex-owned records (SOA in negative
	// answers, apex RRsets): the only entries a ScopeApex event flushes.
	apexDep bool
	// lists is how many index lists hold the entry. dead is set once the
	// entry is flushed or replaced. Both belong to the bucket mutex.
	lists int
	dead  bool
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
		b.index = make(entryIndex)
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

func hashKey(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

func hashString(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
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
// copy, the entry and the key string are built only once both checks have
// passed: a rejected fill allocates nothing. guard runs under the bucket
// mutex, after which no invalidation for the pinned state can be missed:
// events fire after the mutation's generation bump, and every flush takes
// the bucket mutex, so either guard sees the bump (reject) or the event's
// flush runs after this insert (delete).
func (c *ResponseCache) insert(key, wire []byte, origin string, apexDep bool, guard func() bool) *respEntry {
	h := hashKey(key)
	b := &c.buckets[h&(cacheBuckets-1)]
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
	e := &respEntry{key: string(key), hash: h, wire: make([]byte, len(wire)), origin: origin, apexDep: apexDep}
	copy(e.wire, wire)
	e.wire[0], e.wire[1] = 0, 0
	e.wire[2] &^= flagRDByte
	switch {
	case old != nil: // replace in place
		b.unlist(old)
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

// drop leaves a tombstone in the slot that holds e and marks e dead. b.mu
// held.
func (b *respBucket) drop(s *atomic.Pointer[respEntry], e *respEntry) {
	s.Store(tombstone)
	b.live--
	b.unlist(e)
}

// entryIndex maps nameList and apexList keys to candidate lists.
type entryIndex map[uint64][]*respEntry

// nameList is the index key of the entries whose qname is at or below name:
// each entry is listed under every ancestor of its qname (the qname
// included) strictly below its origin — the names a ScopeName event can
// carry. apexList is the key of the apexDep entries of the zone rooted at
// origin. Both are hashes, so a list may hold strangers; a flush takes the
// list as candidates and its predicate decides.
func nameList(name string) uint64   { return hashString(name) }
func apexList(origin string) uint64 { return ^hashString(origin) }

// parentName is the name one label up ("" above a single label).
func parentName(name string) string {
	_, parent, _ := strings.Cut(name, ".")
	return parent
}

// list enters e in the index. b.mu held.
func (b *respBucket) list(e *respEntry) {
	for name := keyQName(e.key); len(name) > len(e.origin); name = parentName(name) {
		k := nameList(name)
		b.index[k] = append(b.index[k], e)
		e.lists++
	}
	if e.apexDep {
		k := apexList(e.origin)
		b.index[k] = append(b.index[k], e)
		e.lists++
	}
	b.listed += e.lists
	b.listedLive += e.lists
	// A dead entry leaves the lists only here, so that a flush pays nothing
	// per list; sweeping once the dead outnumber the living keeps that
	// amortized O(1) per membership and the index within twice its live size.
	if b.listed > 2*b.listedLive {
		for k, l := range b.index {
			b.index.keep(k, l, func(e *respEntry) bool { return !e.dead })
		}
		b.listed = b.listedLive
	}
}

// unlist marks e dead; its list memberships are shed later. b.mu held.
func (b *respBucket) unlist(e *respEntry) {
	e.dead = true
	b.listedLive -= e.lists
}

// applyEvent translates one zone mutation event into the narrowest flush.
func (c *ResponseCache) applyEvent(z *zone.Zone, ev zone.Event) {
	origin := z.Origin
	switch ev.Scope {
	case zone.ScopeZone:
		c.flushWhere(func(e *respEntry) bool { return e.origin == origin })
	case zone.ScopeApex:
		c.flushListed(apexList(origin), func(e *respEntry) bool {
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
		if len(target) > len(origin) {
			c.flushListed(nameList(target), match)
		} else {
			c.flushWhere(match) // not a name the index lists entries under
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

// flushListed removes the entries match accepts among those listed under k,
// visiting only that list in each bucket.
func (c *ResponseCache) flushListed(k uint64, match func(*respEntry) bool) {
	for i := range c.buckets {
		b := &c.buckets[i]
		b.mu.Lock()
		if l := b.index[k]; l != nil {
			t := b.table.Load()
			kept := b.index.keep(k, l, func(e *respEntry) bool {
				if e.dead {
					return false
				}
				if match(e) {
					b.remove(t, e)
					c.flushed.Add(1)
					return false
				}
				return true
			})
			b.listed -= len(l) - kept
		}
		b.mu.Unlock()
	}
}

// keep filters list l of index key k in place, dropping the key when nothing
// is left, and returns how many entries stayed.
func (ix entryIndex) keep(k uint64, l []*respEntry, keep func(*respEntry) bool) int {
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
	return len(kept)
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
