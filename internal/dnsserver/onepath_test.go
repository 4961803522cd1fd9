package dnsserver_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
)

// fatApexHierarchy is the fixture of the truncation tests: example.com
// delegated and signed under a com apex fattened with TXT so that its ANY
// answer cannot fit in 512 bytes.
func fatApexHierarchy(t *testing.T) *dnstest.Hierarchy {
	t.Helper()
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 8; i++ {
		h.TLDZone("com").MustAdd(dnswire.NewRR("com", 300, &dnswire.TXT{
			Strings: []string{fmt.Sprintf("padding-%d-%s", i, bytes.Repeat([]byte{'x'}, 60))},
		}))
	}
	return h
}

// listen puts h behind a real Server on loopback.
func listen(t *testing.T, h dnsserver.Handler) *dnsserver.Server {
	t.Helper()
	srv := &dnsserver.Server{Handler: h}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv
}

// overUDP sends one datagram and returns the reply.
func overUDP(t *testing.T, addr string, pkt []byte) []byte {
	t.Helper()
	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if _, err := conn.Write(pkt); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 65535)
	n, err := conn.Read(buf)
	if err != nil {
		t.Fatal(err)
	}
	return buf[:n]
}

// dialTCP connects to addr over TCP until the test ends.
func dialTCP(t *testing.T, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// tcpExchange sends one length-prefixed message on conn and returns the
// reply, within whatever deadline conn has.
func tcpExchange(conn net.Conn, pkt []byte) ([]byte, error) {
	framed := binary.BigEndian.AppendUint16(nil, uint16(len(pkt)))
	if _, err := conn.Write(append(framed, pkt...)); err != nil {
		return nil, err
	}
	var n [2]byte
	if _, err := io.ReadFull(conn, n[:]); err != nil {
		return nil, err
	}
	out := make([]byte, binary.BigEndian.Uint16(n[:]))
	_, err := io.ReadFull(conn, out)
	return out, err
}

// tcpQuery is tcpExchange of q, its reply unpacked.
func tcpQuery(conn net.Conn, q *dnswire.Message) (*dnswire.Message, error) {
	pkt, err := q.Pack()
	if err != nil {
		return nil, err
	}
	out, err := tcpExchange(conn, pkt)
	if err != nil {
		return nil, err
	}
	var m dnswire.Message
	return &m, m.Unpack(out)
}

// overTCP is tcpExchange within 5 s, failing the test on an error.
func overTCP(t *testing.T, conn net.Conn, pkt []byte) []byte {
	t.Helper()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	out, err := tcpExchange(conn, pkt)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestTransportIndependence: whichever transport carries a query — the UDP
// slow path of a real Server, its TCP loop, the strict MemNet, or a direct
// ServeWireFull — the response is the same bytes wherever the payload limit
// does not bite. The TLD's own host (no cache, registered on the
// hierarchy's MemNet) answers all four.
func TestTransportIndependence(t *testing.T) {
	h := fatApexHierarchy(t)
	host := h.TLDServer("com")
	srv := listen(t, host)
	conn := dialTCP(t, srv.Addr())

	queries := append(sweepQueries(t, sweepNames("com", []string{"example.com"})), fuzzSeeds(t)...)
	sc := dnsserver.NewWireScratch()
	compared := 0
	for i, pkt := range queries {
		var q dnswire.Message
		if q.Unpack(pkt) != nil {
			continue // a packet no transport replies to
		}
		want := append([]byte(nil), host.ServeWireFull(nil, pkt, sc, false)...)
		if len(want) == 0 {
			t.Fatalf("query %d: parsed, but the full path dropped it", i)
		}
		if got := overTCP(t, conn, pkt); !bytes.Equal(got, want) {
			t.Errorf("query %d: TCP diverges from ServeWireFull:\ntcp:  %x\nwant: %x", i, got, want)
		}
		if len(want) <= maxPayload(&q) {
			compared++
			if got := overUDP(t, srv.Addr(), pkt); !bytes.Equal(got, want) {
				t.Errorf("query %d: UDP diverges from ServeWireFull:\nudp:  %x\nwant: %x", i, got, want)
			}
		}
		// MemNet takes and returns Messages: compare as it re-packs.
		resp, err := h.Net.Exchange(context.Background(), dnstest.TLDServerAddr("com"), &q)
		if err != nil {
			t.Fatalf("query %d: MemNet: %v", i, err)
		}
		var decoded dnswire.Message
		if err := decoded.Unpack(want); err != nil {
			t.Fatal(err)
		}
		if got, want := mustPack(t, resp), mustPack(t, &decoded); !bytes.Equal(got, want) {
			t.Errorf("query %d: strict MemNet diverges from ServeWireFull:\nmemnet: %x\nwant:   %x", i, got, want)
		}
	}
	if compared < len(queries)/2 {
		t.Errorf("only %d of %d queries fit their payload limit: the UDP leg compared too little", compared, len(queries))
	}
}

func mustPack(t testing.TB, m *dnswire.Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// TestCachingHostAXFR: a host that carries a response cache transfers its
// zones under the same policy as one that does not, and a transfer after a
// serial bump carries the new serial (AXFR reads the zone, never the cache).
func TestCachingHostAXFR(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("alpha.com", "ns1.op.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	z := h.TLDZone("com")
	host := dnsserver.NewSharded(dnsserver.ShardedConfig{})
	host.AddZone(z)
	srv := listen(t, host)
	client := &dnsserver.AXFRClient{}
	ctx := context.Background()

	if _, err := client.Transfer(ctx, srv.Addr(), "com"); err == nil {
		t.Fatal("transfer succeeded before EnableAXFR")
	}
	host.EnableAXFR(func(origin string) bool { return origin == "com" })
	if _, err := client.Transfer(ctx, srv.Addr(), "org"); err == nil {
		t.Fatal("transfer of a zone the policy denies succeeded")
	}
	serial := func() uint32 {
		t.Helper()
		got, err := client.Transfer(ctx, srv.Addr(), "com")
		if err != nil {
			t.Fatal(err)
		}
		if got.Len() != z.Len() {
			t.Errorf("transferred %d records, zone has %d", got.Len(), z.Len())
		}
		return got.SOA().Data.(*dnswire.SOA).Serial
	}
	before := serial()
	// Cache the SOA answer, so that a transfer served from anything but the
	// zone would show the old serial.
	ex := &dnsserver.NetExchanger{Timeout: 2 * time.Second}
	if _, err := ex.Exchange(ctx, srv.Addr(), dnswire.NewQuery(1, "com", dnswire.TypeSOA)); err != nil {
		t.Fatal(err)
	}
	z.BumpSerial()
	if after := serial(); after <= before {
		t.Errorf("serial %d after BumpSerial, %d before", after, before)
	}
}

// TestTCPRetryServedFromUDPFill: the UDP miss that comes back TC has filled
// the cache with the whole response, and the client's TCP retry is served
// from that entry — one fill, one hit.
func TestTCPRetryServedFromUDPFill(t *testing.T) {
	h := fatApexHierarchy(t)
	host := dnsserver.NewSharded(dnsserver.ShardedConfig{})
	host.AddZone(h.TLDZone("com"))
	srv := listen(t, host)

	q := dnswire.NewQuery(77, "com", dnswire.TypeANY)
	if tc := overUDP(t, srv.Addr(), mustPack(t, q)); tc[2]&0x02 == 0 {
		t.Fatalf("fixture: the UDP answer was not truncated (%d bytes)", len(tc))
	}
	if st := host.CacheStats(); st.Fills != 1 || st.Hits != 0 {
		t.Fatalf("after the UDP miss: %+v, want one fill and no hit", st)
	}
	got := overTCP(t, dialTCP(t, srv.Addr()), mustPack(t, q))
	if st := host.CacheStats(); st.Fills != 1 || st.Hits != 1 {
		t.Errorf("after the TCP retry: %+v, want the one fill and one hit", st)
	}
	want := host.ServeWireFull(nil, mustPack(t, q), dnsserver.NewWireScratch(), false)
	if !bytes.Equal(got, want) {
		t.Errorf("TCP retry diverges from the rendered response:\ntcp:  %x\nwant: %x", got, want)
	}
}

// TestPayloadBelow512NotTruncated: a client whose OPT advertises less than
// 512 octets still gets every answer that fits in 512 (RFC 6891 section
// 6.2.3), from the miss side and the hit side alike, and TC beyond that.
func TestPayloadBelow512NotTruncated(t *testing.T) {
	h := fatApexHierarchy(t)
	cached, _ := newCachedUncachedPair(h.TLDZone("com"))
	sc := dnsserver.NewWireScratch()
	for _, tc := range []struct {
		name      string
		typ       dnswire.Type
		truncated bool
	}{
		{"example.com", dnswire.TypeDS, false},
		{"com", dnswire.TypeANY, true},
	} {
		for _, size := range []uint16{0, 100, 511} {
			q := dnswire.NewQuery(5, tc.name, tc.typ)
			q.SetEDNS(512, true)
			pkt := mustPack(t, q)
			binary.BigEndian.PutUint16(pkt[len(pkt)-8:], size) // the OPT's class
			miss := append([]byte(nil), cached.ServeWireFull(nil, pkt, sc, true)...)
			hit, ok := cached.ServeWireFast(nil, pkt, sc)
			if !ok {
				t.Fatalf("%s %v: cache miss after fill", tc.name, tc.typ)
			}
			if !bytes.Equal(miss, hit) {
				t.Errorf("%s %v size %d: miss and hit sides differ:\nmiss: %x\nhit:  %x", tc.name, tc.typ, size, miss, hit)
			}
			var m dnswire.Message
			if err := m.Unpack(hit); err != nil {
				t.Fatal(err)
			}
			if m.Truncated != tc.truncated || len(hit) > 512 {
				t.Errorf("%s %v size %d: TC=%v in %d bytes, want TC=%v within 512", tc.name, tc.typ, size, m.Truncated, len(hit), tc.truncated)
			}
		}
	}
}

// TestPlainHostHoldsNoCache bounds what a host from NewAuthoritative costs:
// a simulated day materializes thousands of them, one per operator, and a
// ResponseCache's 256 buckets in each would dwarf the zones they serve.
func TestPlainHostHoldsNoCache(t *testing.T) {
	h := newHierarchy(t)
	z := h.TLDZone("com")
	pkt := mustPack(t, dnswire.NewQuery(1, "com", dnswire.TypeSOA))
	sc := dnsserver.NewWireScratch()
	const hosts = 512
	held := make([]*dnsserver.Authoritative, hosts)
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := range held {
		held[i] = dnsserver.NewAuthoritative()
		held[i].AddZone(z)
	}
	runtime.ReadMemStats(&m1)
	if objs, bytes := (m1.Mallocs-m0.Mallocs)/hosts, (m1.TotalAlloc-m0.TotalAlloc)/hosts; objs > 8 || bytes > 1024 {
		t.Errorf("a plain host with one zone costs %d allocations and %d bytes; bound 8 and 1024", objs, bytes)
	}
	for _, a := range held {
		if a.ServeWireFull(nil, pkt, sc, true) == nil {
			t.Fatal("query failed")
		}
		if _, hit := a.ServeWireFast(nil, pkt, sc); hit {
			t.Fatal("a plain host answered from a cache")
		}
		if st := a.CacheStats(); st != (dnsserver.CacheStats{}) {
			t.Fatalf("a plain host counts cache traffic: %+v", st)
		}
	}
}
