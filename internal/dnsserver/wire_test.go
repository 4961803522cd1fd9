package dnsserver_test

import (
	"bytes"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// sweepQueries packs the full question sweep the equivalence tests replay:
// every name × {NS, DS, SOA, A, TXT, ANY} × {no EDNS, EDNS, EDNS+DO}, with
// RD toggled by parity so the cached RD patch is exercised both ways.
func sweepQueries(t *testing.T, names []string) [][]byte {
	t.Helper()
	types := []dnswire.Type{
		dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeSOA,
		dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeANY,
	}
	var out [][]byte
	id := uint16(1)
	for _, name := range names {
		for _, typ := range types {
			for edns := 0; edns < 3; edns++ {
				q := dnswire.NewQuery(id, name, typ)
				q.RecursionDesired = id%2 == 0
				if edns > 0 {
					q.SetEDNS(dnswire.ReplyUDPPayload, edns == 2)
				}
				wire := mustPack(t, q)
				out = append(out, wire)
				id++
			}
		}
	}
	return out
}

// sweepNames builds the name list for a TLD zone hosting the given domains:
// the apex, each delegation, glue-ish children and a nonexistent name.
func sweepNames(tld string, domains []string) []string {
	names := []string{tld, "nonexistent-name." + tld}
	for _, d := range domains {
		names = append(names, d, "www."+d, "nx."+d)
	}
	return names
}

// newCachedUncachedPair installs the same zone into a cache-carrying host
// and a cache-disabled baseline.
func newCachedUncachedPair(z *zone.Zone) (cached, uncached *dnsserver.Authoritative) {
	cached = dnsserver.NewSharded(dnsserver.ShardedConfig{})
	cached.AddZone(z)
	uncached = dnsserver.NewSharded(dnsserver.ShardedConfig{CacheEntries: -1})
	uncached.AddZone(z)
	return cached, uncached
}

// assertSweepEquivalence replays every query against the cached handler
// (twice: fill, then the fast path must hit) and the uncached baseline, and
// requires byte-identical responses. ctxLabel names the assertion site.
func assertSweepEquivalence(t *testing.T, cached, uncached *dnsserver.Authoritative, queries [][]byte, ctxLabel string) {
	t.Helper()
	scC := dnsserver.NewWireScratch()
	scU := dnsserver.NewWireScratch()
	var fastBuf []byte
	for i, pkt := range queries {
		want := uncached.ServeWireFull(nil, pkt, scU, true)
		if want == nil {
			t.Fatalf("%s: query %d failed the uncached path", ctxLabel, i)
		}
		want = append([]byte(nil), want...)
		prime := cached.ServeWireFull(nil, pkt, scC, true)
		if prime == nil {
			t.Fatalf("%s: query %d failed the cached full path", ctxLabel, i)
		}
		if !bytes.Equal(prime, want) {
			t.Fatalf("%s: query %d full-path responses diverge", ctxLabel, i)
		}
		var hit bool
		fastBuf, hit = cached.ServeWireFast(fastBuf[:0], pkt, scC)
		if !hit {
			t.Fatalf("%s: query %d missed the cache after priming", ctxLabel, i)
		}
		if !bytes.Equal(fastBuf, want) {
			t.Fatalf("%s: query %d cached response diverges from uncached:\ncached:   %x\nuncached: %x",
				ctxLabel, i, fastBuf, want)
		}
	}
}

// TestCachedUncachedEquivalence is the acceptance sweep: for a signed TLD
// zone (unsigned, NSEC and NSEC3 denial variants), every cached response
// must be byte-identical to the uncached rendering — same sections, same
// RRSIGs, same denial records, same EDNS — with only ID/RD patched per
// client.
func TestCachedUncachedEquivalence(t *testing.T) {
	domains := []string{"signed.com", "unsigned.com", "bogus.com"}
	build := func(t *testing.T, denial string) *zone.Zone {
		h := newHierarchy(t)
		for i, d := range domains {
			mode := []dnstest.DomainMode{dnstest.Full, dnstest.Unsigned, dnstest.BogusDS}[i]
			if _, _, err := h.AddDomain(d, fmt.Sprintf("ns%d.operator.net", i+1), mode); err != nil {
				t.Fatal(err)
			}
		}
		z := h.TLDZone("com")
		signer := h.TLDSigner("com")
		switch denial {
		case "nsec":
			signer.AddNSEC = true
		case "nsec3":
			signer.NSEC3 = &dnswire.NSEC3PARAM{HashAlg: 1}
		}
		if denial != "plain" {
			if err := signer.Sign(z); err != nil {
				t.Fatal(err)
			}
		}
		return z
	}
	for _, denial := range []string{"plain", "nsec", "nsec3"} {
		t.Run(denial, func(t *testing.T) {
			z := build(t, denial)
			cached, uncached := newCachedUncachedPair(z)
			queries := sweepQueries(t, sweepNames("com", domains))
			assertSweepEquivalence(t, cached, uncached, queries, denial)
			if st := cached.CacheStats(); st.Fills == 0 || st.Hits == 0 {
				t.Errorf("cache not exercised: %+v", st)
			}
		})
	}
}

// TestDayTransitionNoStaleCache mirrors what a tldsim day transition does to
// a TLD zone — registry.syncDelegationLocked's mutation sequence (drop
// NS/DS and DS signatures, publish the new delegation, re-sign the DS set,
// bump the serial) plus key rollover and NS changes — and checks after
// every transition that the warm cache never serves a response the uncached
// path would no longer produce.
func TestDayTransitionNoStaleCache(t *testing.T) {
	for _, denial := range []string{"plain", "nsec"} {
		t.Run(denial, func(t *testing.T) {
			h := newHierarchy(t)
			domains := []string{"alpha.com", "beta.com", "gamma.com"}
			for i, d := range domains {
				if _, _, err := h.AddDomain(d, fmt.Sprintf("ns%d.operator.net", i+1), dnstest.Full); err != nil {
					t.Fatal(err)
				}
			}
			z := h.TLDZone("com")
			signer := h.TLDSigner("com")
			if denial == "nsec" {
				signer.AddNSEC = true
				if err := signer.Sign(z); err != nil {
					t.Fatal(err)
				}
			}
			cached, uncached := newCachedUncachedPair(z)
			queries := sweepQueries(t, sweepNames("com", domains))

			// Prime the cache with the whole sweep, then mutate.
			assertSweepEquivalence(t, cached, uncached, queries, "prime")

			syncDelegation := func(domain, nsHost string, ds []*dnswire.DS) {
				t.Helper()
				z.Remove(domain, dnswire.TypeNS)
				z.Remove(domain, dnswire.TypeDS)
				z.RemoveSigs(domain, dnswire.TypeDS)
				z.MustAdd(dnswire.NewRR(domain, 86400, &dnswire.NS{Host: nsHost}))
				for _, d := range ds {
					z.MustAdd(dnswire.NewRR(domain, 86400, d))
				}
				if len(ds) > 0 {
					if err := signer.SignSet(z, domain, dnswire.TypeDS); err != nil {
						t.Fatal(err)
					}
				}
				z.BumpSerial()
			}
			newDS := func(domain string) []*dnswire.DS {
				t.Helper()
				child, err := zone.NewSigner(dnswire.AlgED25519, testNow)
				if err != nil {
					t.Fatal(err)
				}
				ds, err := child.DSRecords(domain, dnswire.DigestSHA256)
				if err != nil {
					t.Fatal(err)
				}
				return ds
			}

			// Day 1: alpha switches operators and rolls its keys (new DS).
			syncDelegation("alpha.com", "ns9.other-operator.net", newDS("alpha.com"))
			assertSweepEquivalence(t, cached, uncached, queries, "rollover")

			// Day 2: beta goes insecure (DS removed, delegation kept).
			syncDelegation("beta.com", "ns2.operator.net", nil)
			assertSweepEquivalence(t, cached, uncached, queries, "ds-removed")

			// Day 3: gamma is dropped from the registry entirely.
			z.Remove("gamma.com", dnswire.TypeNS)
			z.Remove("gamma.com", dnswire.TypeDS)
			z.RemoveSigs("gamma.com", dnswire.TypeDS)
			z.BumpSerial()
			assertSweepEquivalence(t, cached, uncached, queries, "dropped")

			// Day 4: a brand-new delegation appears (structural under NSEC).
			syncDelegation("delta.com", "ns4.operator.net", newDS("delta.com"))
			more := sweepQueries(t, []string{"delta.com", "www.delta.com"})
			assertSweepEquivalence(t, cached, uncached, append(queries, more...), "added")
		})
	}
}

// TestFastPathAllocs pins the zero-allocation property of warm cache hits:
// at most 2 allocations per query are tolerated, and today the path does 0.
func TestFastPathAllocs(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	cached, _ := newCachedUncachedPair(h.TLDZone("com"))
	q := dnswire.NewQuery(7, "example.com", dnswire.TypeDS)
	q.SetEDNS(dnswire.ReplyUDPPayload, true)
	pkt := mustPack(t, q)
	sc := dnsserver.NewWireScratch()
	if resp := cached.ServeWireFull(nil, pkt, sc, true); resp == nil {
		t.Fatal("prime failed")
	}
	out := make([]byte, 0, 4096)
	var hit bool
	out, hit = cached.ServeWireFast(out[:0], pkt, sc)
	if !hit {
		t.Fatal("warm query missed")
	}
	allocs := testing.AllocsPerRun(1000, func() {
		out, hit = cached.ServeWireFast(out[:0], pkt, sc)
		if !hit {
			t.Fatal("warm query missed")
		}
	})
	if allocs > 2 {
		t.Errorf("fast path allocates %.1f/op (max 2)", allocs)
	}
}

// TestRejectedFillAllocs pins what a fill into a full bucket costs: nothing
// beyond rendering the response. With every bucket at its cap, the full path
// of the caching handler may allocate no more than the cache-disabled
// handler does for the same query, and each such query counts as one
// rejection and no fill.
func TestRejectedFillAllocs(t *testing.T) {
	h := newHierarchy(t)
	z := h.TLDZone("com")
	cached := dnsserver.NewSharded(dnsserver.ShardedConfig{CacheEntries: 1}) // the minimum: 4 per bucket
	cached.AddZone(z)
	plain := dnsserver.NewSharded(dnsserver.ShardedConfig{CacheEntries: -1})
	plain.AddZone(z)
	pack := func(name string) []byte {
		q := dnswire.NewQuery(7, name, dnswire.TypeA)
		q.SetEDNS(dnswire.ReplyUDPPayload, true)
		pkt := mustPack(t, q)
		return pkt
	}
	sc := dnsserver.NewWireScratch()
	out := make([]byte, 0, 4096)
	// Fill until a long run of distinct names leaves the cache as it was.
	for i, idle := 0, 0; idle < 2000; i++ {
		before := cached.CacheStats().Fills
		if cached.ServeWireFull(out[:0], pack(fmt.Sprintf("fill%d.com", i)), sc, true) == nil {
			t.Fatal("fill query failed")
		}
		if idle++; cached.CacheStats().Fills != before {
			idle = 0
		}
	}
	pkt := pack("rejected.com")
	if _, hit := cached.ServeWireFast(out[:0], pkt, sc); hit {
		t.Fatal("the probe name was cached")
	}
	before := cached.CacheStats()
	const runs = 500
	rejected := testing.AllocsPerRun(runs, func() {
		if cached.ServeWireFull(out[:0], pkt, sc, true) == nil {
			t.Fatal("query failed")
		}
	})
	after := cached.CacheStats()
	if after.Fills != before.Fills || after.Rejected-before.Rejected != runs+1 { // AllocsPerRun warms up once
		t.Fatalf("not a rejected fill each time: before %+v, after %+v", before, after)
	}
	uncached := testing.AllocsPerRun(runs, func() {
		if plain.ServeWireFull(out[:0], pkt, sc, true) == nil {
			t.Fatal("query failed")
		}
	})
	if rejected > uncached {
		t.Errorf("a rejected fill allocates %.1f/op, rendering alone %.1f/op", rejected, uncached)
	}
}

// TestTruncatedReplyEchoesEDNS covers both functions that render a TC
// response — serveWire on the slow side, appendTruncated on the hit side —
// and a real Server's UDP slow path over loopback. A response exceeding the
// client's advertised payload must come back TC with the responder's OPT
// when (and only when) the query carried EDNS, and all three must agree
// byte for byte.
func TestTruncatedReplyEchoesEDNS(t *testing.T) {
	z := fatApexHierarchy(t).TLDZone("com")
	cached, uncached := newCachedUncachedPair(z)
	auth := dnsserver.NewAuthoritative()
	auth.AddZone(z)
	srv := listen(t, auth)

	check := func(t *testing.T, pkt []byte, wantOPT bool) {
		scC := dnsserver.NewWireScratch()
		scU := dnsserver.NewWireScratch()
		full := uncached.ServeWireFull(nil, pkt, scU, false)
		if full == nil {
			t.Fatal("uncached render failed")
		}
		if len(full) <= 512 {
			t.Fatalf("test premise broken: response only %d bytes", len(full))
		}
		slowTC := cached.ServeWireFull(nil, pkt, scC, true)
		if slowTC == nil {
			t.Fatal("cached render failed")
		}
		fastTC, hit := cached.ServeWireFast(nil, pkt, scC)
		if !hit {
			t.Fatal("cache miss after fill")
		}
		if !bytes.Equal(slowTC, fastTC) {
			t.Fatalf("slow and fast truncations differ:\nslow: %x\nfast: %x", slowTC, fastTC)
		}
		if serverTC := overUDP(t, srv.Addr(), pkt); !bytes.Equal(serverTC, fastTC) {
			t.Fatalf("Server{Handler: Authoritative} truncation differs from the wire path:\nserver: %x\nwire:   %x", serverTC, fastTC)
		}
		var m dnswire.Message
		if err := m.Unpack(fastTC); err != nil {
			t.Fatal(err)
		}
		if !m.Truncated {
			t.Error("TC not set")
		}
		if len(m.Answers) != 0 || len(m.Authority) != 0 {
			t.Error("truncated response carries records")
		}
		e := m.EDNS()
		if wantOPT && e == nil {
			t.Error("EDNS query got a TC response without OPT")
		}
		if !wantOPT && e != nil {
			t.Error("plain query got an OPT in the TC response")
		}
		if wantOPT && !e.DNSSECOK {
			t.Error("DO bit not echoed in the TC response")
		}
	}

	t.Run("edns-do", func(t *testing.T) {
		q := dnswire.NewQuery(3, "com", dnswire.TypeANY)
		q.SetEDNS(512, true)
		pkt := mustPack(t, q)
		check(t, pkt, true)
	})
	t.Run("no-edns", func(t *testing.T) {
		q := dnswire.NewQuery(4, "com", dnswire.TypeANY)
		pkt := mustPack(t, q)
		check(t, pkt, false)
	})
}

// TestConcurrentMutationEquivalence hammers the cached wire paths from
// several goroutines while a mutator replays day transitions, then checks
// the cache settled to the uncached view. Run under -race this also proves
// the lock-free read paths are sound.
func TestConcurrentMutationEquivalence(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	z := h.TLDZone("com")
	signer := h.TLDSigner("com")
	cached, uncached := newCachedUncachedPair(z)
	queries := sweepQueries(t, sweepNames("com", []string{"example.com"}))

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := dnsserver.NewWireScratch()
			var buf []byte
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				pkt := queries[(i+w)%len(queries)]
				var hit bool
				buf, hit = cached.ServeWireFast(buf[:0], pkt, sc)
				if !hit {
					if out := cached.ServeWireFull(buf[:0], pkt, sc, true); out == nil {
						t.Error("full path failed mid-mutation")
						return
					}
				}
			}
		}(w)
	}
	for round := 0; round < 25; round++ {
		z.Remove("example.com", dnswire.TypeDS)
		z.RemoveSigs("example.com", dnswire.TypeDS)
		child, err := zone.NewSigner(dnswire.AlgED25519, testNow)
		if err != nil {
			t.Fatal(err)
		}
		dss, err := child.DSRecords("example.com", dnswire.DigestSHA256)
		if err != nil {
			t.Fatal(err)
		}
		for _, ds := range dss {
			z.MustAdd(dnswire.NewRR("example.com", 86400, ds))
		}
		if err := signer.SignSet(z, "example.com", dnswire.TypeDS); err != nil {
			t.Fatal(err)
		}
		z.BumpSerial()
	}
	close(stop)
	wg.Wait()
	assertSweepEquivalence(t, cached, uncached, queries, "post-mutation")
}

// TestDelegationFlipBesideReads runs the registry's delegation-flip idiom —
// Remove, MustAdd, BumpSerial — against a TLD zone while workers serve from
// it on both wire paths, with enough names that the cache's tables fill,
// grow and refill stale entries under the load. Under -race it holds BumpSerial
// to replacing the SOA it bumps (the full path packs records after the zone
// lock is released), and afterwards the cache must agree with the uncached
// view. The flips start once a reader has been served from the cache and
// each waits for the readers to have served more, so that flips and reads
// meet whatever the scheduler does.
func TestDelegationFlipBesideReads(t *testing.T) {
	h := newHierarchy(t)
	var domains []string
	for i := 0; i < 48; i++ {
		d := fmt.Sprintf("flip%d.com", i)
		domains = append(domains, d)
		if _, _, err := h.AddDomain(d, "ns1.operator.net", []dnstest.DomainMode{dnstest.Full, dnstest.Unsigned}[i%2]); err != nil {
			t.Fatal(err)
		}
	}
	z := h.TLDZone("com")
	cached, uncached := newCachedUncachedPair(z)
	queries := sweepQueries(t, sweepNames("com", domains))

	var served, hits atomic.Int64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			sc := dnsserver.NewWireScratch()
			var buf []byte
			for i := w; ; i += 7 {
				select {
				case <-stop:
					return
				default:
				}
				pkt := queries[i%len(queries)]
				var hit bool
				if buf, hit = cached.ServeWireFast(buf[:0], pkt, sc); hit {
					hits.Add(1)
				} else if cached.ServeWireFull(buf[:0], pkt, sc, true) == nil {
					t.Error("full path failed beside a delegation flip")
					return
				}
				served.Add(1)
				runtime.Gosched() // a single P must let the flips in between the reads
			}
		}(w)
	}
	// awaitReaders returns once counter has passed floor, or the readers died.
	awaitReaders := func(counter *atomic.Int64, floor int64) {
		for counter.Load() <= floor && !t.Failed() {
			runtime.Gosched()
		}
	}
	awaitReaders(&hits, 0)
	for round := 0; round < 400; round++ {
		awaitReaders(&served, served.Load()+8)
		d := domains[round%len(domains)]
		z.Remove(d, dnswire.TypeNS)
		z.MustAdd(dnswire.NewRR(d, 86400, &dnswire.NS{Host: fmt.Sprintf("ns%d.operator.net", 1+round%2)}))
		z.BumpSerial()
	}
	close(stop)
	wg.Wait()
	assertSweepEquivalence(t, cached, uncached, queries, "after the flips")
	if st := cached.CacheStats(); st.Flushed == 0 || st.Hits == 0 {
		t.Errorf("flips and reads did not meet: %+v", st)
	}
}
