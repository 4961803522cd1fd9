package dnsserver_test

import (
	"bytes"
	"fmt"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// TestMissPathAllocs pins what a cache miss allocates on a signed DO
// referral: the qname string, and when the fill is stored the cache entry
// and its share of the bucket tables' growth; nothing else.
func TestMissPathAllocs(t *testing.T) {
	const runs = 1000
	z, names := benchTLD(t, 2*runs+2)
	queries := make([][]byte, 0, runs+1)
	for i := 0; i < cap(queries); i++ {
		queries = append(queries, benchQuery(t, names[2*i], dnswire.TypeA, true, true)) // the even ones have a DS
	}
	sc := dnsserver.NewWireScratch()
	out := make([]byte, 0, 4096)
	miss := func(host *dnsserver.Authoritative) float64 {
		next := 0
		return testing.AllocsPerRun(runs, func() { // which warms up once: runs+1 queries
			resp := host.ServeWireFull(out[:0], queries[next], sc, true)
			if next++; len(resp) < 200 {
				t.Fatalf("query %d: a %d-byte response is no signed referral", next, len(resp))
			}
		})
	}
	filling := dnsserver.NewSharded(dnsserver.ShardedConfig{})
	full := dnsserver.NewSharded(dnsserver.ShardedConfig{CacheEntries: 1}) // the minimum: 4 per bucket
	for _, host := range []*dnsserver.Authoritative{filling, full} {
		host.AddZone(z)
	}
	fillToCap(t, full)
	if n := miss(filling); n > 3 {
		t.Errorf("a filled miss allocates %.1f times, want at most 3", n)
	}
	if st := filling.CacheStats(); st.Fills != runs+1 {
		t.Errorf("not every miss was filled: %+v", st)
	}
	before := full.CacheStats()
	if n := miss(full); n > 1 {
		t.Errorf("a miss whose fill is rejected allocates %.1f times, want at most 1", n)
	}
	if st := full.CacheStats(); st.Fills != before.Fills || st.Rejected != before.Rejected+runs+1 {
		t.Errorf("not every fill was rejected: before %+v, after %+v", before, st)
	}
	plain := dnsserver.NewAuthoritative()
	plain.AddZone(z)
	if n := miss(plain); n > 1 {
		t.Errorf("a miss without a cache allocates %.1f times, want at most 1", n)
	}
}

// TestReferralNeverTorn: a DO referral is one state of the zone. A mutator
// takes a delegation's DS and its signature through every state a registry
// does — no DS, a DS not yet signed, signed, and the DS gone from under its
// signature — in a zone whose NSEC chain proves the absent DS, while readers
// ask the uncached host for the referral. Every response is, byte for byte,
// the rendering of one of those four states; a renderer that reads the DS
// RRset twice under two locks also shows mixtures of two, the signature of a
// DS it does not carry and no proof of its absence.
func TestReferralNeverTorn(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("torn.com", "ns1.operator.net", dnstest.Unsigned); err != nil {
		t.Fatal(err)
	}
	z, signer := h.TLDZone("com"), h.TLDSigner("com")
	signer.AddNSEC = true
	if err := signer.Sign(z); err != nil {
		t.Fatal(err)
	}
	host := dnsserver.NewAuthoritative()
	host.AddZone(z)
	ds := dnswire.NewRR("torn.com", 86400, &dnswire.DS{
		KeyTag: 1, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32),
	})
	steps := []func(){
		func() { z.MustAdd(ds) },
		func() {
			if err := signer.SignSet(z, "torn.com", dnswire.TypeDS); err != nil {
				t.Error(err)
			}
		},
		func() { z.Remove("torn.com", dnswire.TypeDS) },
		func() { z.RemoveSigs("torn.com", dnswire.TypeDS) },
	}
	q := dnswire.NewQuery(9, "www.torn.com", dnswire.TypeA)
	q.SetEDNS(4096, true)
	pkt := mustPack(t, q)
	var states [][]byte
	for _, step := range steps {
		step()
		states = append(states, host.ServeWireFull(nil, pkt, dnsserver.NewWireScratch(), false))
	}
	for i, a := range states {
		for _, b := range states[:i] {
			if bytes.Equal(a, b) {
				t.Fatal("fixture: two of the zone's states render alike")
			}
		}
	}

	var served atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			sc := dnsserver.NewWireScratch()
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				buf = host.ServeWireFull(buf[:0], pkt, sc, false)
				known := false
				for _, state := range states {
					known = known || bytes.Equal(buf, state)
				}
				if !known {
					t.Errorf("a referral that is no state of the zone:\n%x", buf)
					return
				}
				served.Add(1)
				runtime.Gosched() // a single P must let the mutator in between the reads
			}
		}()
	}
	for round := 0; round < 3000 && !t.Failed(); round++ {
		for floor := served.Load(); round%50 == 0 && served.Load() <= floor && !t.Failed(); {
			runtime.Gosched()
		}
		steps[round%len(steps)]()
	}
	close(stop)
	readers.Wait()
}

// TestDenialCostIndependentOfZoneSize: an NXDOMAIN under DO finds its
// covering NSEC in the zone's kept owner order, so what the answer allocates
// does not grow with the zone — the order is rebuilt after a structural
// change and at no other time. (Sorting every owner per answer, as the
// renderer did, allocates a hundred times more in the larger zone.)
func TestDenialCostIndependentOfZoneSize(t *testing.T) {
	cost := func(owners int) (allocs, bytes float64) {
		z := zone.New("example")
		z.MustAdd(dnswire.NewRR("example", 3600, &dnswire.SOA{MName: "ns1.example", RName: "admin.example", Serial: 1, Minimum: 300}))
		z.MustAdd(dnswire.NewRR("example", 3600, &dnswire.NS{Host: "ns1.example"}))
		host := func(i int) string {
			if i%owners == 0 {
				return "example"
			}
			return fmt.Sprintf("h%06d.example", i%owners) // equal lengths: numeric order is canonical order
		}
		for i := 0; i < owners; i++ {
			if i > 0 {
				z.MustAdd(dnswire.NewRR(host(i), 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}))
			}
			z.MustAdd(dnswire.NewRR(host(i), 300, &dnswire.NSEC{NextName: host(i + 1), Types: []dnswire.Type{dnswire.TypeA, dnswire.TypeNSEC}}))
		}
		srv := dnsserver.NewAuthoritative()
		srv.AddZone(z)
		q := dnswire.NewQuery(1, fmt.Sprintf("h%06dx.example", owners/2), dnswire.TypeA)
		q.SetEDNS(4096, true)
		answer := func() {
			resp := srv.ServeDNS(q)
			if resp.RCode != dnswire.RCodeNameError || len(resp.Authority) != 2 || resp.Authority[1].Name != host(owners/2) {
				t.Fatalf("%d owners: not an NXDOMAIN under its covering NSEC: %v", owners, resp)
			}
		}
		const runs = 50
		var before, after runtime.MemStats
		allocs = testing.AllocsPerRun(runs, answer)
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			answer()
		}
		runtime.ReadMemStats(&after)
		return allocs, float64(after.TotalAlloc-before.TotalAlloc) / runs
	}
	smallAllocs, smallBytes := cost(200)
	largeAllocs, largeBytes := cost(20000)
	if largeAllocs >= 2*smallAllocs || largeBytes >= 2*smallBytes {
		t.Errorf("an NXDOMAIN under DO costs %.0f allocations and %.0f bytes among 200 owners, %.0f and %.0f among 20,000",
			smallAllocs, smallBytes, largeAllocs, largeBytes)
	}
}
