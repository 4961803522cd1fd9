package dnsserver_test

import (
	"net/netip"
	"sync"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// smallZone is an unsigned zone at origin answering www.<origin> A with addr.
func smallZone(origin string, addr byte) *zone.Zone {
	z := zone.New(origin)
	z.MustAdd(dnswire.NewRR(origin, 3600, &dnswire.SOA{MName: "ns1." + origin, RName: "admin." + origin, Serial: 1, Minimum: 300}))
	z.MustAdd(dnswire.NewRR(origin, 3600, &dnswire.NS{Host: "ns1." + origin}))
	z.MustAdd(dnswire.NewRR("www."+origin, 300, &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, addr})}))
	return z
}

// countingBuild returns a build of smallZone(origin, addr) that counts its
// calls.
func countingBuild(origin string, addr byte) (func() *zone.Zone, *atomic.Int32) {
	var calls atomic.Int32
	return func() *zone.Zone {
		calls.Add(1)
		return smallZone(origin, addr)
	}, &calls
}

// answerA is the address host answers for www.<origin> A, or an invalid
// address when it answers none.
func answerA(t *testing.T, host *dnsserver.Authoritative, origin string) netip.Addr {
	t.Helper()
	resp := query(t, host, "www."+origin, dnswire.TypeA, false)
	if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		return netip.Addr{}
	}
	return resp.Answers[0].Data.(*dnswire.A).Addr
}

// TestDeferredZoneBuiltOnceAtFirstQuery: AddZoneFunc, ZoneCount and queries
// for other origins leave a deferred zone unbuilt; 32 concurrent first
// queries build it once and all get its answer; Zone then returns the built
// zone without building again.
func TestDeferredZoneBuiltOnceAtFirstQuery(t *testing.T) {
	host := dnsserver.NewAuthoritative()
	host.AddZone(smallZone("other.example", 1))
	build, calls := countingBuild("lazy.example", 2)
	host.AddZoneFunc("Lazy.Example", build)
	if n, d := host.ZoneCount(), host.DeferredCount(); n != 2 || d != 1 {
		t.Errorf("ZoneCount = %d, DeferredCount = %d with one zone and one deferred, want 2 and 1", n, d)
	}
	if got := answerA(t, host, "other.example"); got != netip.AddrFrom4([4]byte{192, 0, 2, 1}) {
		t.Errorf("other.example answered %v", got)
	}
	if resp := query(t, host, "www.elsewhere.example", dnswire.TypeA, false); resp.RCode != dnswire.RCodeRefused {
		t.Errorf("a name outside every origin: rcode %v, want REFUSED", resp.RCode)
	}
	if n := calls.Load(); n != 0 {
		t.Fatalf("the deferred zone was built %d times before anyone asked it", n)
	}

	q := dnswire.NewQuery(7, "www.lazy.example", dnswire.TypeA)
	q.SetEDNS(1232, true)
	pkt := mustPack(t, q)
	start := make(chan struct{})
	var wg sync.WaitGroup
	responses := make([][]byte, 32)
	for i := range responses {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			responses[i] = host.ServeWireFull(nil, pkt, dnsserver.NewWireScratch(), true)
		}()
	}
	close(start)
	wg.Wait()
	if n := calls.Load(); n != 1 {
		t.Fatalf("32 concurrent first queries built the zone %d times, want 1", n)
	}
	for i, resp := range responses {
		var m dnswire.Message
		if err := m.Unpack(resp); err != nil || m.RCode != dnswire.RCodeSuccess || len(m.Answers) != 1 {
			t.Fatalf("first query %d: %v, %v", i, err, m.Answers)
		}
	}
	if z := host.Zone("lazy.example"); z == nil || z.Origin != "lazy.example" {
		t.Fatalf("Zone after the build: %v", z)
	}
	if n, zones, d := calls.Load(), host.ZoneCount(), host.DeferredCount(); n != 1 || zones != 2 || d != 0 {
		t.Errorf("after Zone: %d builds, %d zones and %d deferred, want 1, 2 and 0", n, zones, d)
	}
}

// TestDeferredZoneDroppedOrReplacedUnbuilt: RemoveZone drops a deferred
// origin and AddZone replaces it, neither building it; AddZoneFunc replaces
// a built zone in turn.
func TestDeferredZoneDroppedOrReplacedUnbuilt(t *testing.T) {
	host := dnsserver.NewAuthoritative()
	build, calls := countingBuild("lazy.example", 2)
	host.AddZoneFunc("lazy.example", build)
	host.RemoveZone("lazy.example")
	if n, d := host.ZoneCount(), host.DeferredCount(); n != 0 || d != 0 {
		t.Errorf("ZoneCount = %d, DeferredCount = %d after RemoveZone, want 0 and 0", n, d)
	}
	if host.Zone("lazy.example") != nil || answerA(t, host, "lazy.example").IsValid() {
		t.Error("a removed deferred origin still answers")
	}

	host.AddZoneFunc("lazy.example", build)
	host.AddZone(smallZone("lazy.example", 3))
	if got := answerA(t, host, "lazy.example"); got != netip.AddrFrom4([4]byte{192, 0, 2, 3}) {
		t.Errorf("after AddZone over the deferred origin: %v, want the replacement's 192.0.2.3", got)
	}
	if n := calls.Load(); n != 0 {
		t.Errorf("dropping and replacing built the deferred zone %d times", n)
	}

	rebuild, recalls := countingBuild("lazy.example", 4)
	host.AddZoneFunc("lazy.example", rebuild)
	if got := answerA(t, host, "lazy.example"); got != netip.AddrFrom4([4]byte{192, 0, 2, 4}) || recalls.Load() != 1 {
		t.Errorf("AddZoneFunc over a built zone: answered %v after %d builds, want 192.0.2.4 after 1", got, recalls.Load())
	}
	if n := host.ZoneCount(); n != 1 {
		t.Errorf("ZoneCount = %d, want 1", n)
	}
}

// TestDeferredZoneRemovedMidBuild: an origin removed while its build runs
// stays removed; the build's zone answers only the query that started it.
func TestDeferredZoneRemovedMidBuild(t *testing.T) {
	host := dnsserver.NewAuthoritative()
	started, release := make(chan struct{}), make(chan struct{})
	host.AddZoneFunc("lazy.example", func() *zone.Zone {
		close(started)
		<-release
		return smallZone("lazy.example", 2)
	})
	first := make(chan *dnswire.Message)
	go func() { first <- host.ServeDNS(dnswire.NewQuery(1, "www.lazy.example", dnswire.TypeA)) }()
	<-started
	host.RemoveZone("lazy.example") // the host's lock is free while the build runs
	close(release)
	if resp := <-first; resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 1 {
		t.Errorf("the query that started the build got %v", resp)
	}
	if host.ZoneCount() != 0 || answerA(t, host, "lazy.example").IsValid() {
		t.Error("a build that finished after RemoveZone brought its origin back")
	}
}

// TestDeferredBuildAcrossMissCannotFill: on a cache-carrying host, the miss
// whose lookup builds a deferred zone renders the answer but may not fill
// the cache — the build moved the zone set under it; the next miss fills.
func TestDeferredBuildAcrossMissCannotFill(t *testing.T) {
	host := dnsserver.NewSharded(dnsserver.ShardedConfig{})
	build, _ := countingBuild("lazy.example", 2)
	host.AddZoneFunc("lazy.example", build)
	pkt := mustPack(t, dnswire.NewQuery(9, "www.lazy.example", dnswire.TypeA))
	sc := dnsserver.NewWireScratch()
	first := append([]byte(nil), host.ServeWireFull(nil, pkt, sc, true)...)
	if st := host.CacheStats(); st.Fills != 0 || st.Rejected != 1 {
		t.Fatalf("the miss across the build: %+v, want its fill rejected", st)
	}
	second := host.ServeWireFull(nil, pkt, sc, true)
	if st := host.CacheStats(); st.Fills != 1 {
		t.Errorf("the miss after the build: %+v, want one fill", st)
	}
	hit, ok := host.ServeWireFast(nil, pkt, sc)
	if !ok || len(first) == 0 {
		t.Fatal("no hit after the fill")
	}
	for _, got := range [][]byte{second, hit} {
		if string(got) != string(first) {
			t.Errorf("responses differ:\n%x\n%x", got, first)
		}
	}
}

// TestCNAMESignedOnlyUnderDO: a CNAME answer carries the alias's and the
// in-zone target's RRSIGs under DO and no RRSIG otherwise (RFC 3225
// section 3), from ServeDNS and the wire path alike.
func TestCNAMESignedOnlyUnderDO(t *testing.T) {
	z := smallZone("example", 1)
	z.MustAdd(dnswire.NewRR("alias.example", 300, &dnswire.CNAME{Target: "www.example"}))
	signer, err := zone.NewSigner(dnswire.AlgED25519, testNow)
	if err != nil {
		t.Fatal(err)
	}
	if err := signer.Sign(z); err != nil {
		t.Fatal(err)
	}
	host := dnsserver.NewAuthoritative()
	host.AddZone(z)
	sc := dnsserver.NewWireScratch()
	for edns := 0; edns < 3; edns++ {
		q := dnswire.NewQuery(3, "alias.example", dnswire.TypeA)
		if edns > 0 {
			q.SetEDNS(1232, edns == 2)
		}
		var wire dnswire.Message
		if err := wire.Unpack(host.ServeWireFull(nil, mustPack(t, q), sc, false)); err != nil {
			t.Fatal(err)
		}
		for path, resp := range map[string]*dnswire.Message{"ServeDNS": host.ServeDNS(q), "wire": &wire} {
			types := map[dnswire.Type]int{}
			for _, rr := range resp.Answers {
				types[rr.Type]++
			}
			wantSigs := 0
			if edns == 2 {
				wantSigs = 2
			}
			if types[dnswire.TypeCNAME] != 1 || types[dnswire.TypeA] != 1 || types[dnswire.TypeRRSIG] != wantSigs {
				t.Errorf("%s, edns=%d: answer types %v, want CNAME, A and %d RRSIGs", path, edns, types, wantSigs)
			}
		}
	}
}
