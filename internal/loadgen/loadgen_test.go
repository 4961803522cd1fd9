package loadgen_test

import (
	"bytes"
	"context"
	"math/rand"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/loadgen"
)

// startServer brings up a real Server on loopback fronting the com TLD zone
// through a Sharded handler.
func startServer(t *testing.T) (*dnsserver.Server, []string) {
	t.Helper()
	h, err := dnstest.NewHierarchy(time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC), "com")
	if err != nil {
		t.Fatal(err)
	}
	names := []string{"example.com", "signed.com", "plain.com"}
	for _, name := range names {
		if _, _, err := h.AddDomain(name, "ns1.operator.net", dnstest.Full); err != nil {
			t.Fatal(err)
		}
	}
	sh := dnsserver.NewSharded(dnsserver.ShardedConfig{})
	sh.AddZone(h.TLDZone("com"))
	srv := &dnsserver.Server{Handler: sh}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return srv, names
}

func TestClosedLoopSmoke(t *testing.T) {
	srv, names := startServer(t)
	mix, err := loadgen.QueryMix(names, []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS}, 0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr:     srv.Addr(),
		Queries:  mix,
		Conns:    2,
		Duration: 300 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 {
		t.Fatalf("no responses received: %+v", res)
	}
	if res.Sent < res.Received {
		t.Fatalf("sent %d < received %d", res.Sent, res.Received)
	}
	if res.QPS <= 0 {
		t.Fatalf("QPS not positive: %+v", res)
	}
	if res.P50 <= 0 {
		t.Fatalf("p50 not positive: %+v", res)
	}
	// The mix repeats fast, so the wire cache must be carrying load.
	if st := srv.Stats(); st.CacheHits == 0 {
		t.Errorf("no cache hits after closed-loop run: %+v", st)
	}
}

func TestOpenLoopSmoke(t *testing.T) {
	srv, names := startServer(t)
	mix, err := loadgen.QueryMix(names, []dnswire.Type{dnswire.TypeSOA}, 1.0, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr:     srv.Addr(),
		Queries:  mix,
		Conns:    2,
		Mode:     loadgen.Open,
		Rate:     2000,
		Duration: 250 * time.Millisecond,
		Seed:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Received == 0 {
		t.Fatalf("no responses received: %+v", res)
	}
	if res.OfferedQPS != 2000 {
		t.Fatalf("offered rate not reported: %+v", res)
	}
}

func TestRunRejectsBadConfig(t *testing.T) {
	if _, err := loadgen.Run(context.Background(), loadgen.Config{Addr: "127.0.0.1:1"}); err == nil {
		t.Error("empty mix accepted")
	}
	if _, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr: "127.0.0.1:1", Queries: [][]byte{make([]byte, 4)},
	}); err == nil {
		t.Error("short query accepted")
	}
	if _, err := loadgen.Run(context.Background(), loadgen.Config{
		Addr: "127.0.0.1:1", Queries: [][]byte{make([]byte, 12)}, Mode: loadgen.Open,
	}); err == nil {
		t.Error("open mode without rate accepted")
	}
}

// TestQueryMixMatchesPack holds the hand-appended packets to the Message
// construction they replaced: the same bytes for every (name, type) pair,
// with the DO draws taken from the seeded stream in the same order.
func TestQueryMixMatchesPack(t *testing.T) {
	names := []string{"example.com", "WWW.Example.COM.", "a.b.c.d.example.nl", "se", ""}
	types := []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeDNSKEY, dnswire.TypeA}
	for _, doRatio := range []float64{0, 0.3, 1} {
		const seed = 11
		mix, err := loadgen.QueryMix(names, types, doRatio, seed)
		if err != nil {
			t.Fatal(err)
		}
		if len(mix) != len(names)*len(types) {
			t.Fatalf("doRatio %v: %d packets, want %d", doRatio, len(mix), len(names)*len(types))
		}
		rng := rand.New(rand.NewSource(seed))
		for i, name := range names {
			for j, typ := range types {
				q := dnswire.NewQuery(0, name, typ)
				q.SetEDNS(dnswire.ReplyUDPPayload, rng.Float64() < doRatio)
				want, err := q.Pack()
				if err != nil {
					t.Fatal(err)
				}
				got := mix[i*len(types)+j]
				if !bytes.Equal(got, want) {
					t.Errorf("doRatio %v, %q/%v:\n got %x\nwant %x", doRatio, name, typ, got, want)
				}
				if cap(got) != len(got) {
					t.Errorf("%q/%v: packet has %d spare bytes that belong to its neighbour", name, typ, cap(got)-len(got))
				}
			}
		}
	}
	if _, err := loadgen.QueryMix([]string{"ok.example", strings.Repeat("x", 64) + ".example"}, types, 1, 1); err == nil {
		t.Error("a 64-octet label was packed")
	}
}
