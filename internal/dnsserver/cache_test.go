package dnsserver

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// cacheModel is the reference the open-addressed cache is held to: one plain
// map, the per-bucket cap counted from the same hash, and every flush a full
// scan with the predicate the event's scope defines.
type cacheModel struct {
	entries  map[string]*respEntry
	perCap   int
	inBucket [cacheBuckets]int

	hits, fills, rejected, flushed uint64
}

func newCacheModel(c *ResponseCache) *cacheModel {
	return &cacheModel{entries: make(map[string]*respEntry), perCap: c.perBucketCap}
}

func (m *cacheModel) lookup(key []byte) *respEntry {
	e := m.entries[string(key)]
	if e != nil {
		m.hits++
	}
	return e
}

// insert files e, the entry the cache stored or nil if it stored none, when
// the model's own rules accept the fill; the two must agree.
func (m *cacheModel) insert(t *testing.T, key []byte, e *respEntry, ok bool) {
	t.Helper()
	b := hashKey(key) & (cacheBuckets - 1)
	_, have := m.entries[string(key)]
	if !ok || !have && m.inBucket[b] >= m.perCap {
		if e != nil {
			t.Fatalf("key %q: the cache stored a fill the model rejects", key)
		}
		m.rejected++
		return
	}
	if e == nil {
		t.Fatalf("key %q: the cache rejected a fill the model accepts", key)
	}
	if !have {
		m.inBucket[b]++
	}
	m.entries[string(key)] = e
	m.fills++
}

func (m *cacheModel) flushWhere(match func(key string, e *respEntry) bool) {
	for k, e := range m.entries {
		if match(k, e) {
			delete(m.entries, k)
			m.inBucket[hashKey([]byte(k))&(cacheBuckets-1)]--
			m.flushed++
		}
	}
}

func (m *cacheModel) applyEvent(z *zone.Zone, ev zone.Event) {
	switch ev.Scope {
	case zone.ScopeZone:
		m.flushWhere(func(_ string, e *respEntry) bool { return e.origin == z.Origin })
	case zone.ScopeApex:
		m.flushWhere(func(_ string, e *respEntry) bool { return e.apexDep && e.origin == z.Origin })
	default:
		target := ev.Name
		if cut, _ := z.DelegationFor(ev.Name); cut != "" {
			target = cut
		}
		m.flushWhere(func(k string, e *respEntry) bool {
			return e.origin == z.Origin && dnswire.IsSubdomain(keyQName(k), target)
		})
	}
}

func (m *cacheModel) flushSubtree(name string) {
	m.flushWhere(func(k string, _ *respEntry) bool { return dnswire.IsSubdomain(keyQName(k), name) })
}

// cacheUniverse is a closed set of keys over three zones — "com" with
// delegation cuts, "uk" whose cuts sit two labels below the apex, and the
// root — plus names chosen to trap suffix matching that ignores label
// boundaries (ab.com is not under b.com).
type cacheUniverse struct {
	zones  []*zone.Zone
	qnames []string
	keys   [][]byte
}

func newCacheUniverse(domains int) *cacheUniverse {
	com, uk, root := zone.New("com"), zone.New("uk"), zone.New("")
	u := &cacheUniverse{zones: []*zone.Zone{com, uk, root}}
	cut := func(z *zone.Zone, name string) {
		z.MustAdd(dnswire.NewRR(name, 3600, &dnswire.NS{Host: "ns1.operator.example"}))
	}
	u.qnames = []string{"", "com", "uk", "co.uk", "nx.com", "b.com", "ab.com", "www.b.com", "host.com", "sub.host.com"}
	cut(com, "b.com")
	cut(com, "ab.com")
	cut(root, "com")
	for i := 0; i < domains; i++ {
		d, k := fmt.Sprintf("d%d.com", i), fmt.Sprintf("x%d.co.uk", i)
		u.qnames = append(u.qnames, d, "www."+d, "deep.er.www."+d, k, "www."+k)
		if i%3 != 0 { // every third name is in-zone data, not a cut
			cut(com, d)
			cut(uk, k)
		}
	}
	for _, q := range u.qnames {
		for _, t := range []dnswire.Type{dnswire.TypeA, dnswire.TypeNS, dnswire.TypeDS} {
			for _, edns := range []byte{ednsNone, ednsDO} {
				u.keys = append(u.keys, respKey(nil, []byte(q), t, edns))
			}
		}
	}
	return u
}

// entryFor renders a synthetic response for key from a random zone that
// contains its qname.
func (u *cacheUniverse) entryFor(rng *rand.Rand, key []byte, serial int) (wire []byte, origin string, apexDep bool) {
	var origins []string
	for _, z := range u.zones {
		if dnswire.IsSubdomain(keyQName(string(key)), z.Origin) {
			origins = append(origins, z.Origin)
		}
	}
	return []byte(fmt.Sprintf("%s#%d", key, serial)), origins[rng.Intn(len(origins))], rng.Intn(4) == 0
}

// randomEvent draws an event as a zone would emit it: a name in the zone's
// bailiwick (at, above, below or beside the cuts), or an apex or zone event.
func (u *cacheUniverse) randomEvent(rng *rand.Rand) (*zone.Zone, zone.Event) {
	z := u.zones[rng.Intn(len(u.zones))]
	switch rng.Intn(8) {
	case 0:
		return z, zone.Event{Scope: zone.ScopeZone}
	case 1:
		return z, zone.Event{Name: z.Origin, Scope: zone.ScopeApex}
	}
	for {
		name := u.qnames[rng.Intn(len(u.qnames))]
		if name != z.Origin && dnswire.IsSubdomain(name, z.Origin) {
			return z, zone.Event{Name: name, Scope: zone.ScopeName}
		}
	}
}

// assertSameContents requires the cache and the model to hold the same
// entry under every key of the universe, and the same counters.
func assertSameContents(t *testing.T, c *ResponseCache, m *cacheModel, u *cacheUniverse, step string) {
	t.Helper()
	for _, key := range u.keys {
		got, want := c.lookup(key), m.lookup(key)
		if got != want {
			t.Fatalf("%s: key %q: cache holds %p, model holds %p", step, key, got, want)
		}
	}
	st := c.Stats()
	if st.Entries != len(m.entries) || st.Hits != m.hits || st.Fills != m.fills ||
		st.Rejected != m.rejected || st.Flushed != m.flushed {
		t.Fatalf("%s: stats %+v, model entries=%d hits=%d fills=%d rejected=%d flushed=%d",
			step, st, len(m.entries), m.hits, m.fills, m.rejected, m.flushed)
	}
}

// TestCacheMatchesMapModel drives the cache and the map model through the
// same seeded sequence of fills, replacements, guard rejections, cap
// overflows and flushes of every scope, comparing contents and counters
// throughout. The small cache lives at its per-bucket cap; the large one
// grows its tables and sheds tombstones.
func TestCacheMatchesMapModel(t *testing.T) {
	for _, tc := range []struct {
		name              string
		maxEntries, steps int
	}{
		{"at-cap", cacheBuckets * 4, 20000},
		{"growing", cacheBuckets * 256, 40000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			u := newCacheUniverse(300)
			for seed := int64(1); seed <= 2; seed++ {
				rng := rand.New(rand.NewSource(seed))
				c := NewResponseCache(tc.maxEntries)
				m := newCacheModel(c)
				for step := 0; step < tc.steps; step++ {
					switch op := rng.Intn(100); {
					case op < 90:
						key := u.keys[rng.Intn(len(u.keys))]
						wire, origin, apexDep := u.entryFor(rng, key, step)
						ok := rng.Intn(20) != 0
						e := c.insert(key, wire, origin, apexDep, func() bool { return ok })
						m.insert(t, key, e, ok)
					case op < 99:
						z, ev := u.randomEvent(rng)
						c.applyEvent(z, ev)
						m.applyEvent(z, ev)
					default:
						name := u.qnames[rng.Intn(len(u.qnames))]
						if name == "" {
							continue // would empty both sides every time
						}
						c.FlushSubtree(name)
						m.flushSubtree(name)
					}
					if step%997 == 0 {
						assertSameContents(t, c, m, u, fmt.Sprintf("seed %d step %d", seed, step))
					}
				}
				assertSameContents(t, c, m, u, fmt.Sprintf("seed %d end", seed))
				if m.rejected == 0 || m.flushed == 0 {
					t.Fatalf("seed %d exercised no rejection or no flush: %+v", seed, c.Stats())
				}
			}
		})
	}
}

// TestIndexedFlushMatchesScan fills a cache, applies one event, and requires
// the indexed flush to have removed exactly the keys the full-scan predicate
// of that scope selects — for every scope, for names at, under, above and
// beside delegation cuts (so the widening to the cut is covered), and for
// lists that hold entries of several origins.
func TestIndexedFlushMatchesScan(t *testing.T) {
	u := newCacheUniverse(40)
	com, uk, root := u.zones[0], u.zones[1], u.zones[2]
	events := []struct {
		z  *zone.Zone
		ev zone.Event
	}{
		{com, zone.Event{Scope: zone.ScopeZone}},
		{com, zone.Event{Name: "com", Scope: zone.ScopeApex}},
		{root, zone.Event{Name: "", Scope: zone.ScopeApex}},
		{com, zone.Event{Name: "d1.com", Scope: zone.ScopeName}},             // at a cut
		{com, zone.Event{Name: "deep.er.www.d1.com", Scope: zone.ScopeName}}, // below one: widened
		{com, zone.Event{Name: "www.d3.com", Scope: zone.ScopeName}},         // no cut above: not widened
		{com, zone.Event{Name: "b.com", Scope: zone.ScopeName}},              // ab.com must survive
		{com, zone.Event{Name: "never-cached.com", Scope: zone.ScopeName}},   // no list at all
		{uk, zone.Event{Name: "co.uk", Scope: zone.ScopeName}},               // above every cut
		{uk, zone.Event{Name: "www.x2.co.uk", Scope: zone.ScopeName}},        // cut two labels down
		{root, zone.Event{Name: "www.d1.com", Scope: zone.ScopeName}},        // widened to the TLD cut
		{root, zone.Event{Name: "uk", Scope: zone.ScopeName}},                // root's entries only
	}
	for i, tc := range events {
		rng := rand.New(rand.NewSource(int64(i)))
		c := NewResponseCache(0)
		m := newCacheModel(c)
		for round := 0; round < 2; round++ { // the second round replaces
			for _, key := range u.keys {
				wire, origin, apexDep := u.entryFor(rng, key, round)
				e := c.insert(key, wire, origin, apexDep, func() bool { return true })
				m.insert(t, key, e, true)
			}
		}
		c.applyEvent(tc.z, tc.ev)
		m.applyEvent(tc.z, tc.ev)
		label := fmt.Sprintf("zone %q event %+v", tc.z.Origin, tc.ev)
		assertSameContents(t, c, m, u, label)
		if tc.ev.Name != "never-cached.com" && m.flushed == 0 {
			t.Errorf("%s flushed nothing", label)
		}
	}
}

// TestCacheLookupDuringChurn holds the lock-free read path to its contract
// while writers fill, replace, flush and rebuild beside it: a key that is
// never flushed is found by every lookup, and no lookup ever returns another
// key's entry. Run under -race it also proves the publication is sound.
func TestCacheLookupDuringChurn(t *testing.T) {
	c := NewResponseCache(cacheBuckets * 64)
	pass := func() bool { return true }
	key := func(name string) []byte { return respKey(nil, []byte(name), dnswire.TypeA, ednsDO) }

	var stable [][]byte
	for i := 0; i < 2000; i++ {
		k := key(fmt.Sprintf("stable%d.org", i))
		stable = append(stable, k)
		c.insert(k, k, "org", false, pass)
	}

	var stop atomic.Bool
	var readers, writers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func(r int) {
			defer readers.Done()
			rng := rand.New(rand.NewSource(int64(r)))
			churn := key("")
			for !stop.Load() {
				k := stable[rng.Intn(len(stable))]
				// insert cleared the ID and the RD bit in its copy.
				if e := c.lookup(k); e == nil || string(e.wire[3:]) != string(k[3:]) {
					t.Errorf("stable key %q: lookup returned %v", k, e)
					return
				}
				churn = respKey(churn, []byte(fmt.Sprintf("churn%d.com", rng.Intn(4000))), dnswire.TypeA, ednsDO)
				if e := c.lookup(churn); e != nil && e.key != string(churn) {
					t.Errorf("key %q: lookup returned the entry of %q", churn, e.key)
					return
				}
			}
		}(r)
	}
	com := zone.New("com")
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 15000; i++ {
				name := fmt.Sprintf("churn%d.com", rng.Intn(4000))
				switch rng.Intn(8) {
				case 0:
					c.applyEvent(com, zone.Event{Name: name, Scope: zone.ScopeName})
				case 1:
					if rng.Intn(50) == 0 {
						c.applyEvent(com, zone.Event{Scope: zone.ScopeZone})
					}
				default:
					c.insert(key(name), key(name), "com", false, pass)
				}
			}
		}(w)
	}
	writers.Wait()
	stop.Store(true)
	readers.Wait()
	if st := c.Stats(); st.Flushed == 0 || st.Entries < len(stable) {
		t.Errorf("churn did not churn: %+v", st)
	}
}

// benchKeys builds n distinct keys as a warm-up pass over a TLD zone's
// delegations produces them: four per domain.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = respKey(nil, fmt.Appendf(nil, "www.domain%d.com", i/4), dnswire.Type(1+i%4), ednsDO)
	}
	return keys
}

// fillCache inserts keys[lo:hi:step] under origin "com"; one key in twenty
// carries the apex's SOA.
func fillCache(c *ResponseCache, keys [][]byte, lo, hi, step int) {
	pass := func() bool { return true }
	for i := lo; i < hi; i += step {
		c.insert(keys[i], keys[i], "com", i%20 == 0, pass)
	}
}

// BenchmarkCacheFill reports the cost of one fill into an empty cache sized
// for n entries, for growing n: amortized O(1) means ns/fill stays flat.
func BenchmarkCacheFill(b *testing.B) {
	for _, n := range []int{16 << 10, 64 << 10, 256 << 10} {
		b.Run(fmt.Sprintf("entries=%dk", n>>10), func(b *testing.B) {
			keys := benchKeys(n)
			var st CacheStats
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c := NewResponseCache(2 * n)
				fillCache(c, keys, 0, n, 1)
				st = c.Stats()
			}
			if st.Entries != n {
				b.Fatalf("filled %d of %d entries: %+v", st.Entries, n, st)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/fill")
		})
	}
}

// BenchmarkCacheInvalidate measures one delegation flip — the events of
// Remove, MustAdd and BumpSerial on a TLD zone — against a warm 40,000-entry
// cache; what a flip flushed (the delegation's entries and the 2,000 that
// carry the SOA) is filled back, off the clock, before the next.
func BenchmarkCacheInvalidate(b *testing.B) {
	const entries = 40000
	keys := benchKeys(entries)
	c := NewResponseCache(0)
	fillCache(c, keys, 0, entries, 1)
	com := zone.New("com")
	names := make([]string, entries/4)
	for d := range names {
		names[d] = fmt.Sprintf("domain%d.com", d)
		com.MustAdd(dnswire.NewRR(names[d], 86400, &dnswire.NS{Host: "ns1.operator.example"}))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := i % len(names)
		c.applyEvent(com, zone.Event{Name: names[d], Scope: zone.ScopeName})
		c.applyEvent(com, zone.Event{Name: names[d], Scope: zone.ScopeName})
		c.applyEvent(com, zone.Event{Name: "com", Scope: zone.ScopeApex})
		b.StopTimer()
		fillCache(c, keys, 4*d, 4*d+4, 1)
		fillCache(c, keys, 0, entries, 20)
		b.StartTimer()
	}
	if st := c.Stats(); st.Entries != entries {
		b.Fatalf("cache not warm at the end: %+v", st)
	}
}
