package dnsserver

import (
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// keyQName recovers the qname portion of a key.
func keyQName(key string) string { return key[:len(key)-3] }

// modelEntry is what the model knows of an entry the cache stored: the
// zone it was rendered from, whether it embeds apex records, and whether an
// event has since invalidated it by the full-scan predicate of its scope.
type modelEntry struct {
	e       *respEntry
	key     string
	origin  string
	apexDep bool
	dead    bool
	// at is the entry's index in cacheModel.list.
	at int
}

// cacheModel is the reference the stamped cache is held to: one plain map of
// the entries the cache stored, and every event a full scan that marks what
// the event's scope invalidates. The cache must serve a key's last stored
// entry exactly while that entry's stamps have not moved, and never once the
// scan has marked it.
type cacheModel struct {
	c       *ResponseCache
	entries map[string]*modelEntry
	// list holds the entries for a dense walk; inBucket files their keys by
	// the bucket that holds them.
	list     []*modelEntry
	inBucket [cacheBuckets][]string

	hits, fills, rejected, freshReplaced uint64
}

func newCacheModel(c *ResponseCache) *cacheModel {
	return &cacheModel{c: c, entries: make(map[string]*modelEntry)}
}

// served is the entry the cache must serve for key: the last one it stored,
// while fresh.
func (m *cacheModel) served(key []byte) *respEntry {
	if me := m.entries[string(key)]; me != nil && m.c.fresh(me.e) {
		return me.e
	}
	return nil
}

// freshIn counts the fresh entries of key's bucket other than key's.
func (m *cacheModel) freshIn(key []byte) int {
	n := 0
	for _, k := range m.inBucket[hashKey(key)&(cacheBuckets-1)] {
		if k != string(key) && m.c.fresh(m.entries[k].e) {
			n++
		}
	}
	return n
}

// fill has the cache store a response for key rendered from origin, with
// raced — an event that happened between the stamp read and the insert, or
// nil — and holds what the cache did to the model's rules: a fill an event
// invalidated while it rendered is refused; a quiet fill is stored unless
// its bucket holds its cap of fresh entries; anything else is the cache's
// choice (a stale entry it still holds for key is replaced, a shared stamp
// may have moved).
func (m *cacheModel) fill(t *testing.T, key []byte, origin string, apexDep bool, raced func() func(*modelEntry) bool) {
	t.Helper()
	p := m.c.pin(origin, keyQName(string(key)))
	var match func(*modelEntry) bool
	if raced != nil {
		match = raced()
		m.invalidate(match)
	}
	wasFresh := m.served(key) != nil
	crowded := m.freshIn(key) >= m.c.perBucketCap
	e := m.c.insert(key, []byte(fmt.Sprintf("%s#%d", key, m.fills)), p, apexDep)
	me := &modelEntry{e: e, key: string(key), origin: origin, apexDep: apexDep}
	switch {
	case match != nil && match(me):
		if e != nil {
			t.Fatalf("key %q: the cache stored a fill an event invalidated while it rendered", key)
		}
	case match == nil && e == nil && (wasFresh || !crowded):
		t.Fatalf("key %q: the cache rejected a quiet fill with room for it", key)
	}
	if e == nil {
		m.rejected++
		return
	}
	if wasFresh {
		m.freshReplaced++
	}
	if old := m.entries[string(key)]; old != nil {
		me.at = old.at
	} else {
		b := hashKey(key) & (cacheBuckets - 1)
		m.inBucket[b] = append(m.inBucket[b], string(key))
		me.at = len(m.list)
		m.list = append(m.list, nil)
	}
	m.list[me.at] = me
	m.entries[string(key)] = me
	m.fills++
}

// invalidate marks every entry match accepts.
func (m *cacheModel) invalidate(match func(*modelEntry) bool) {
	for _, me := range m.list {
		if !me.dead && match(me) {
			me.dead = true
		}
	}
}

// eventMatch is the full-scan predicate of one zone event: a zone event
// invalidates what the zone rendered, an apex event what of it embeds apex
// records, and a name event what of it lies at or below the enclosing
// delegation cut (or the name, where there is no cut).
func eventMatch(z *zone.Zone, ev zone.Event) func(*modelEntry) bool {
	switch ev.Scope {
	case zone.ScopeZone:
		return func(me *modelEntry) bool { return me.origin == z.Origin }
	case zone.ScopeApex:
		return func(me *modelEntry) bool { return me.apexDep && me.origin == z.Origin }
	}
	target := ev.Name
	if cut, _ := z.DelegationFor(ev.Name); cut != "" {
		target = cut
	}
	return func(me *modelEntry) bool {
		return me.origin == z.Origin && dnswire.IsSubdomain(keyQName(me.key), target)
	}
}

// movedMatch is the full-scan predicate of a zone installed or removed at
// origin: what was rendered for a name at or below it, by that zone or by
// one above it.
func movedMatch(origin string) func(*modelEntry) bool {
	return func(me *modelEntry) bool {
		return dnswire.IsSubdomain(keyQName(me.key), origin) && dnswire.IsSubdomain(origin, me.origin)
	}
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

// originFor draws a zone that contains key's qname, and whether the
// response embeds apex records.
func (u *cacheUniverse) originFor(rng *rand.Rand, key []byte) (origin string, apexDep bool) {
	var origins []string
	for _, z := range u.zones {
		if dnswire.IsSubdomain(keyQName(string(key)), z.Origin) {
			origins = append(origins, z.Origin)
		}
	}
	return origins[rng.Intn(len(origins))], rng.Intn(4) == 0
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

// assertServes requires the cache to serve, under every key of the
// universe, the entry the model says it must, and never one an event's scan
// has marked; and its counters to account for every fill.
func assertServes(t *testing.T, m *cacheModel, u *cacheUniverse, step string) {
	t.Helper()
	for _, key := range u.keys {
		got, want := m.c.lookup(key), m.served(key)
		if got != want {
			t.Fatalf("%s: key %q: cache serves %p, model %p", step, key, got, want)
		}
		if want != nil {
			m.hits++
			if m.entries[string(key)].dead {
				t.Fatalf("%s: key %q: the cache serves an entry an event invalidated", step, key)
			}
		}
	}
	st := m.c.Stats()
	if st.Hits != m.hits || st.Fills != m.fills || st.Rejected != m.rejected {
		t.Fatalf("%s: stats %+v, model hits=%d fills=%d rejected=%d", step, st, m.hits, m.fills, m.rejected)
	}
	// Every stored entry is resident, or was replaced fresh, or was stale
	// when it was dropped or replaced.
	if st.Fills != uint64(st.Entries)+st.Flushed+m.freshReplaced {
		t.Fatalf("%s: %d fills are not %d resident + %d flushed + %d replaced fresh", step, st.Fills, st.Entries, st.Flushed, m.freshReplaced)
	}
	if st.Entries > m.c.perBucketCap*cacheBuckets {
		t.Fatalf("%s: %d entries resident, over the cap of %d", step, st.Entries, m.c.perBucketCap*cacheBuckets)
	}
}

// TestCacheMatchesMapModel drives the cache and the map model through the
// same seeded sequence of fills (some with an event racing their render),
// zone events of every scope and zone-set changes, comparing what is served
// and the counters throughout. The small cache lives at its per-bucket cap
// and sheds stale entries to make room; the large one grows its tables.
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
				event := func() func(*modelEntry) bool {
					if rng.Intn(10) == 0 {
						name := u.qnames[rng.Intn(len(u.qnames))]
						c.zoneMoved(name)
						return movedMatch(name)
					}
					z, ev := u.randomEvent(rng)
					c.applyEvent(z.Origin, ev)
					return eventMatch(z, ev)
				}
				for step := 0; step < tc.steps; step++ {
					switch op := rng.Intn(100); {
					case op < 90:
						key := u.keys[rng.Intn(len(u.keys))]
						origin, apexDep := u.originFor(rng, key)
						var raced func() func(*modelEntry) bool
						if rng.Intn(20) == 0 {
							raced = event
						}
						m.fill(t, key, origin, apexDep, raced)
					default:
						m.invalidate(event())
					}
					if step%997 == 0 {
						assertServes(t, m, u, fmt.Sprintf("seed %d step %d", seed, step))
					}
				}
				assertServes(t, m, u, fmt.Sprintf("seed %d end", seed))
				if st := c.Stats(); st.Rejected == 0 || st.Flushed == 0 {
					t.Fatalf("seed %d exercised no rejection or no flush: %+v", seed, st)
				}
			}
		})
	}
}

// TestIndexedFlushMatchesScan fills a cache, applies one event, and holds
// the stamps to the full-scan predicate of that scope: no entry the
// predicate selects is served, and an entry it does not select is served
// exactly while none of its stamps moved — for every scope, for names at,
// under, above and beside delegation cuts (so the widening to the cut is
// covered), and for entries of several origins.
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
		{com, zone.Event{Name: "never-cached.com", Scope: zone.ScopeName}},   // nothing cached below
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
				origin, apexDep := u.originFor(rng, key)
				m.fill(t, key, origin, apexDep, nil)
			}
		}
		before := make([]uint64, len(c.stamps))
		for s := range c.stamps {
			before[s] = c.stamps[s].Load()
		}
		c.applyEvent(tc.z.Origin, tc.ev)
		match := eventMatch(tc.z, tc.ev)
		label := fmt.Sprintf("zone %q event %+v", tc.z.Origin, tc.ev)
		invalidated, selected := 0, 0
		for _, me := range m.list {
			moved := false
			for _, s := range me.e.deps {
				moved = moved || c.stamps[s].Load() != before[s]
			}
			served := c.lookup([]byte(me.key)) != nil
			switch {
			case match(me):
				selected++
				if served {
					t.Fatalf("%s: key %q is served after the event", label, me.key)
				}
			case served == moved:
				t.Fatalf("%s: key %q served=%v with its stamps moved=%v", label, me.key, served, moved)
			case moved && me.origin != tc.z.Origin:
				invalidated++ // another zone's entry sharing a stamp
			}
		}
		if tc.ev.Name != "never-cached.com" && selected == 0 {
			t.Errorf("%s selected nothing", label)
		}
		if invalidated > len(m.entries)/100 {
			t.Errorf("%s invalidated %d entries of other zones", label, invalidated)
		}
	}
}

// TestFillRacingChildMutationNeverServed renders a referral as serveWire
// does and mutates the delegation between the stamp read and the insert,
// or after the insert: either way the rendering is never served, and the
// next fill serves the new delegation. A sibling delegation's entry stays.
func TestFillRacingChildMutationNeverServed(t *testing.T) {
	com := zone.New("com")
	com.MustAdd(dnswire.NewRR("com", 3600, &dnswire.SOA{MName: "ns.com", RName: "h.com", Serial: 1}))
	for _, d := range []string{"d1.com", "d2.com"} {
		com.MustAdd(dnswire.NewRR(d, 3600, &dnswire.NS{Host: "ns1.operator.example"}))
	}
	host := NewSharded(ShardedConfig{})
	host.AddZone(com)
	sc := NewWireScratch()
	query := func(name string) []byte {
		pkt, err := dnswire.NewQuery(1, name, dnswire.TypeNS).Pack()
		if err != nil {
			t.Fatal(err)
		}
		return pkt
	}
	sibling := query("www.d2.com")
	if host.ServeWireFull(nil, sibling, sc, true) == nil {
		t.Fatal("sibling fill failed")
	}
	for round, after := range []bool{false, true} {
		pkt := query("www.d1.com")
		v, _, err := dnswire.ParseQueryView(pkt, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp := sc.replySkeleton(&v)
		z, p := host.answer(resp, &sc.reader, "www.d1.com", dnswire.TypeNS, false)
		wire, err := resp.AppendPack(nil)
		if err != nil {
			t.Fatal(err)
		}
		flip := func() {
			com.Remove("d1.com", dnswire.TypeNS)
			com.MustAdd(dnswire.NewRR("d1.com", 3600, &dnswire.NS{Host: fmt.Sprintf("ns%d.other.example", round)}))
		}
		if !after {
			flip()
		}
		e := host.cache.insert(respKey(nil, v.Name, v.Type, ednsNone), wire, p, respDependsOnApex(resp, z.Origin))
		if after {
			flip()
		} else if e != nil {
			t.Errorf("after=%v: a fill rendered before the flip was stored", after)
		}
		if _, hit := host.ServeWireFast(nil, pkt, sc); hit {
			t.Fatalf("after=%v: the rendering from before the flip is served", after)
		}
		refill := host.ServeWireFull(nil, pkt, sc, true)
		got, hit := host.ServeWireFast(nil, pkt, sc)
		var m dnswire.Message
		if err := m.Unpack(got); err != nil || !hit || string(got) != string(refill) {
			t.Fatalf("after=%v: the refill is not served (hit %v, %v)", after, hit, err)
		}
		if want := fmt.Sprintf("ns%d.other.example", round); len(m.Authority) != 1 || m.Authority[0].Data.(*dnswire.NS).Host != want {
			t.Fatalf("after=%v: referral %v, want NS %s", after, m.Authority, want)
		}
	}
	if _, hit := host.ServeWireFast(nil, sibling, sc); !hit {
		t.Error("the sibling delegation's entry went stale")
	}
}

// TestApexNodataInvalidatedByApexEvent: an answer for the apex depends on
// the apex even when it embeds no apex record — a NODATA from a zone with
// no SOA — so the apex event of a record added there invalidates it.
func TestApexNodataInvalidatedByApexEvent(t *testing.T) {
	z := zone.New("example")
	z.MustAdd(dnswire.NewRR("www.example", 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}))
	host := NewSharded(ShardedConfig{})
	host.AddZone(z)
	pkt, err := dnswire.NewQuery(1, "example", dnswire.TypeA).Pack()
	if err != nil {
		t.Fatal(err)
	}
	sc := NewWireScratch()
	host.ServeWireFull(nil, pkt, sc, true)
	if _, hit := host.ServeWireFast(nil, pkt, sc); !hit {
		t.Fatal("the NODATA was not cached")
	}
	z.MustAdd(dnswire.NewRR("example", 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.9")}))
	if _, hit := host.ServeWireFast(nil, pkt, sc); hit {
		t.Error("the NODATA is served after the apex gained the record")
	}
}

// TestDistinctNameChurnStaysBounded streams distinct names through a small
// cache while their delegations change: the resident entries never pass the
// cap, stale ones make room for new names, and the stamps stay as they were
// sized.
func TestDistinctNameChurnStaysBounded(t *testing.T) {
	const capacity = cacheBuckets * 8
	c := NewResponseCache(capacity)
	stamps := len(c.stamps)
	limit := c.perBucketCap * cacheBuckets
	for i := 0; i < 40*capacity; i++ {
		name := fmt.Sprintf("www.d%d.com", i)
		c.insert(respKey(nil, []byte(name), dnswire.TypeA, ednsDO), []byte(name), c.pin("com", name), i%16 == 0)
		if i%4 == 0 { // the delegation of a name filled a while ago changes
			c.applyEvent("com", zone.Event{Name: fmt.Sprintf("d%d.com", i-capacity/2), Scope: zone.ScopeName})
		}
		if i%1000 == 0 {
			c.applyEvent("com", zone.Event{Name: "com", Scope: zone.ScopeApex})
			if n := c.Stats().Entries; n > limit {
				t.Fatalf("after %d names: %d entries resident, cap %d", i, n, limit)
			}
		}
	}
	st := c.Stats()
	if len(c.stamps) != stamps || st.Entries > limit || st.Fills <= uint64(limit) || st.Flushed == 0 || st.Rejected == 0 {
		t.Errorf("%d stamps (sized %d), cap %d: %+v", len(c.stamps), stamps, limit, st)
	}
}

// TestCacheLookupDuringChurn holds the lock-free read path to its contract
// while writers fill, replace, invalidate, shed and rebuild beside it: a
// key whose stamps no event moves is found by every lookup, and no lookup
// ever returns another key's entry. Run under -race it also proves the
// publication is sound.
func TestCacheLookupDuringChurn(t *testing.T) {
	c := NewResponseCache(cacheBuckets * 16)
	key := func(name string) []byte { return respKey(nil, []byte(name), dnswire.TypeA, ednsDO) }
	churnName := func(i int) string { return fmt.Sprintf("churn%d.com", i) }
	const churnNames = 300

	// The stable keys are those whose stamps the churn's events leave alone.
	bumped := map[uint32]bool{c.stampOf("com", scopeZone, ""): true}
	for i := 0; i < churnNames; i++ {
		bumped[c.stampOf("com", scopeName, churnName(i))] = true
	}
	origin := "org"
	for o := 0; bumped[c.stampOf(origin, scopeZone, "")]; o++ {
		origin = fmt.Sprintf("org%d", o)
	}
	var stable [][]byte
	for i := 0; i < 3000; i++ {
		name := fmt.Sprintf("stable%d.%s", i, origin)
		if k := key(name); !bumped[c.stampOf(origin, scopeName, name)] && c.insert(k, k, c.pin(origin, name), false) != nil {
			stable = append(stable, k)
		}
	}
	if len(stable) < 1500 {
		t.Fatalf("only %d stable keys", len(stable))
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
				churn = respKey(churn, []byte(churnName(rng.Intn(churnNames))), dnswire.TypeA, ednsDO)
				if e := c.lookup(churn); e != nil && e.key != string(churn) {
					t.Errorf("key %q: lookup returned the entry of %q", churn, e.key)
					return
				}
			}
		}(r)
	}
	for w := 0; w < 2; w++ {
		writers.Add(1)
		go func(w int) {
			defer writers.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 15000; i++ {
				name := churnName(rng.Intn(churnNames))
				switch rng.Intn(8) {
				case 0:
					c.applyEvent("com", zone.Event{Name: name, Scope: zone.ScopeName})
				case 1:
					if rng.Intn(50) == 0 {
						c.applyEvent("com", zone.Event{Scope: zone.ScopeZone})
					}
				default:
					// Distinct qnames below the name fill the buckets to their cap.
					qname := fmt.Sprintf("h%d.%s", rng.Intn(20), name)
					c.insert(key(qname), key(qname), c.pin("com", qname), false)
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

// fillCache inserts keys[lo:hi:step] rendered from "com", each under the
// stamps it reads first; one key in twenty carries the apex's SOA.
func fillCache(c *ResponseCache, keys [][]byte, lo, hi, step int) {
	for i := lo; i < hi; i += step {
		c.insert(keys[i], keys[i], c.pin("com", keyQName(string(keys[i]))), i%20 == 0)
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

// BenchmarkCacheInvalidate measures what one delegation flip — the events
// of Remove, MustAdd and BumpSerial on a TLD zone — costs a warm
// 40,000-entry cache until it is warm again: the events, and the refill of
// what they invalidated (the delegation's four entries and the 2,000 that
// carry the SOA).
func BenchmarkCacheInvalidate(b *testing.B) {
	const entries = 40000
	keys := benchKeys(entries)
	c := NewResponseCache(0)
	fillCache(c, keys, 0, entries, 1)
	names := make([]string, entries/4)
	for d := range names {
		names[d] = fmt.Sprintf("domain%d.com", d)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := i % len(names)
		c.applyEvent("com", zone.Event{Name: names[d], Scope: zone.ScopeName})
		c.applyEvent("com", zone.Event{Name: names[d], Scope: zone.ScopeName})
		c.applyEvent("com", zone.Event{Name: "com", Scope: zone.ScopeApex})
		fillCache(c, keys, 4*d, 4*d+4, 1)
		fillCache(c, keys, 0, entries, 20)
	}
	if st := c.Stats(); st.Entries != entries || st.Flushed < uint64(b.N)*entries/20 {
		b.Fatalf("a flip did not invalidate what it should, or the cache is not warm: %+v", st)
	}
}
