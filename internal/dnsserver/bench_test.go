package dnsserver_test

import (
	"fmt"
	"testing"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// benchTLD builds a "com" zone the way tldsim.Materialize builds a TLD's: a
// signed apex, then per delegation an NS record and — for every second one —
// a DS RRset with its signature filed, not planned.
func benchTLD(tb testing.TB, delegations int) (*zone.Zone, []string) {
	tb.Helper()
	z := zone.New("com")
	z.MustAdd(dnswire.NewRR("com", 86400, &dnswire.SOA{
		MName: "ns1.com-registry.example", RName: "hostmaster.ns1.com-registry.example",
		Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 3600,
	}))
	z.MustAdd(dnswire.NewRR("com", 86400, &dnswire.NS{Host: "ns1.com-registry.example"}))
	signer, err := zone.NewSigner(dnswire.AlgED25519, testNow)
	if err != nil {
		tb.Fatal(err)
	}
	if err := signer.Sign(z); err != nil {
		tb.Fatal(err)
	}
	names := make([]string, delegations)
	for i := range names {
		names[i] = fmt.Sprintf("domain%d.com", i)
		z.MustAdd(dnswire.NewRR(names[i], 86400, &dnswire.NS{Host: fmt.Sprintf("ns1.operator%d.example", i%97)}))
		if i%2 == 1 {
			continue
		}
		ds := dnswire.NewRR(names[i], 86400, &dnswire.DS{
			KeyTag: uint16(i + 1), Algorithm: dnswire.AlgED25519,
			DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32),
		})
		sig, err := signer.SignRRSet("com", []*dnswire.RR{ds})
		if err != nil {
			tb.Fatal(err)
		}
		z.MustAdd(ds)
		z.MustAdd(sig)
	}
	return z, names
}

// benchQuery packs one query the way loadgen.QueryMix does.
func benchQuery(tb testing.TB, name string, t dnswire.Type, edns, do bool) []byte {
	tb.Helper()
	if !edns {
		pkt := mustPack(tb, dnswire.NewQuery(0, name, t))
		return pkt
	}
	pkt, err := dnswire.AppendEDNSQuery(nil, 0, name, t, dnswire.ReplyUDPPayload, do)
	if err != nil {
		tb.Fatal(err)
	}
	return pkt
}

// fillToCap asks host for distinct names until a long run of them leaves
// its cache as it was: every bucket a fill could land in is at its cap.
func fillToCap(tb testing.TB, host *dnsserver.Authoritative) {
	tb.Helper()
	sc := dnsserver.NewWireScratch()
	out := make([]byte, 0, 4096)
	for i, idle := 0, 0; idle < 4000; i++ {
		before := host.CacheStats().Fills
		if host.ServeWireFull(out[:0], benchQuery(tb, fmt.Sprintf("fill%d.com", i), dnswire.TypeA, false, false), sc, true) == nil {
			tb.Fatal("fill query failed")
		}
		if idle++; host.CacheStats().Fills != before {
			idle = 0
		}
	}
}

// BenchmarkServeWireFull is the go-test twin of the end-to-end benchmark's
// dnsserver.full_ns: one cache miss per operation — parse, zone walk, pack,
// fill — over a 5,000-delegation TLD zone. Every operation is a first touch:
// the host, and with it the cache, is replaced each time the queries wrap.
// rejected-fill is the same referral against a cache whose buckets are full;
// any is an ANY at the apex with no cache, one walk of the apex's RRsets.
func BenchmarkServeWireFull(b *testing.B) {
	const delegations = 5000
	z, names := benchTLD(b, delegations)
	signed := func(i int) string { return names[i-i%2] }
	shapes := []struct {
		name    string
		entries int
		query   func(i int) []byte
	}{
		{"referral", 0, func(i int) []byte { return benchQuery(b, "www."+names[i], dnswire.TypeA, false, false) }},
		{"referral-do-signed", 0, func(i int) []byte { return benchQuery(b, signed(i), dnswire.Type(1+i%2), true, true) }},
		{"ds-answer", 0, func(i int) []byte { return benchQuery(b, signed(i), dnswire.TypeDS, true, i%2 == 0) }},
		{"nxdomain-do", 0, func(i int) []byte { return benchQuery(b, fmt.Sprintf("nx-%d.com", i), dnswire.TypeA, true, true) }},
		{"rejected-fill", 1, func(i int) []byte { return benchQuery(b, "www."+names[i], dnswire.TypeA, false, false) }},
		{"any", -1, func(int) []byte { return benchQuery(b, "com", dnswire.TypeANY, true, false) }},
	}
	for _, shape := range shapes {
		b.Run(shape.name, func(b *testing.B) {
			queries := make([][]byte, delegations)
			for i := range queries {
				queries[i] = shape.query(i)
			}
			sc := dnsserver.NewWireScratch()
			out := make([]byte, 0, 4096)
			fresh := func() *dnsserver.Authoritative {
				host := dnsserver.NewSharded(dnsserver.ShardedConfig{CacheEntries: shape.entries})
				host.AddZone(z)
				if shape.entries > 0 {
					fillToCap(b, host) // so that each measured fill is rejected
				}
				return host
			}
			host := fresh()
			// Produce the apex signatures a first DO answer would.
			for _, pkt := range queries[:2] {
				host.ServeWireFull(out[:0], pkt, sc, true)
			}
			host = fresh()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%delegations == 0 && i > 0 && shape.entries == 0 {
					b.StopTimer()
					host = fresh()
					b.StartTimer()
				}
				if host.ServeWireFull(out[:0], queries[i%delegations], sc, true) == nil {
					b.Fatal("query failed")
				}
			}
			b.StopTimer()
			if st := host.CacheStats(); shape.entries > 0 && st.Fills > 4*256 {
				b.Fatalf("fills were not rejected: %+v", st)
			}
		})
	}
}
