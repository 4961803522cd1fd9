package zone_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

var propNow = time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)

// propKeys is one fixed Ed25519 key set for every seed: Ed25519 signatures
// are a function of key and data, so zones built alike sign alike.
var propKeys = sync.OnceValues(func() (*zone.Signer, error) {
	return zone.NewSigner(dnswire.AlgED25519, propNow)
})

// propSigner draws the signer variant of a seed: no denial chain, NSEC or
// NSEC3, and one time in four a validity window that ended a month ago.
func propSigner(t *testing.T, r *rand.Rand) *zone.Signer {
	t.Helper()
	keys, err := propKeys()
	if err != nil {
		t.Fatal(err)
	}
	s := *keys
	switch r.Intn(3) {
	case 1:
		s.AddNSEC = true
	case 2:
		s.NSEC3 = &dnswire.NSEC3PARAM{HashAlg: 1, Iterations: uint16(r.Intn(3)), Salt: []byte{0xab, byte(r.Intn(256))}}
	}
	if r.Intn(4) == 0 {
		s.Inception, s.Expiration = propNow.AddDate(0, -3, 0), propNow.AddDate(0, -1, 0)
	}
	return &s
}

// propZone builds the seed's unsigned zone — hosts with one to three RRsets,
// an empty non-terminal, sometimes a CNAME, and delegations with and without
// DS, with glue below the cut or nameservers elsewhere — and the names worth
// asking about: every owner, names under the cuts, names that do not exist.
func propZone(r *rand.Rand) (*zone.Zone, []string) {
	const origin = "prop.example"
	z := zone.New(origin)
	z.MustAdd(dnswire.NewRR(origin, 3600, &dnswire.SOA{
		MName: "ns1." + origin, RName: "admin." + origin,
		Serial: uint32(1 + r.Intn(1<<20)), Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: uint32(60 + r.Intn(600)),
	}))
	z.MustAdd(dnswire.NewRR(origin, 3600, &dnswire.NS{Host: "ns1." + origin}))
	z.MustAdd(dnswire.NewRR("ns1."+origin, 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}))
	ask := []string{"nx." + origin, "nx.ns1." + origin, "zz.nx." + origin}
	for i, n := 0, 2+r.Intn(6); i < n; i++ {
		name := fmt.Sprintf("h%d.%s", r.Intn(12), origin)
		for j, m := 0, 1+r.Intn(3); j < m; j++ {
			switch r.Intn(4) {
			case 0:
				z.MustAdd(dnswire.NewRR(name, 300, &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(r.Intn(256))})}))
			case 1:
				z.MustAdd(dnswire.NewRR(name, 300, &dnswire.TXT{Strings: []string{fmt.Sprint("v=", r.Intn(100))}}))
			case 2:
				z.MustAdd(dnswire.NewRR(name, 600, &dnswire.MX{Pref: uint16(r.Intn(50)), Host: "ns1." + origin}))
			case 3:
				z.MustAdd(dnswire.NewRR(name, 300, &dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(r.Intn(256))})}))
			}
		}
	}
	z.MustAdd(dnswire.NewRR("leaf.ent."+origin, 300, &dnswire.TXT{Strings: []string{"below an empty non-terminal"}}))
	ask = append(ask, "ent."+origin)
	if r.Intn(3) == 0 {
		z.MustAdd(dnswire.NewRR("alias."+origin, 300, &dnswire.CNAME{Target: "ns1." + origin}))
	}
	for i, n := 0, 1+r.Intn(4); i < n; i++ {
		cut := fmt.Sprintf("d%d.%s", i, origin)
		if r.Intn(2) == 0 {
			host := "ns." + cut
			z.MustAdd(dnswire.NewRR(cut, 86400, &dnswire.NS{Host: host}))
			z.MustAdd(dnswire.NewRR(host, 86400, &dnswire.A{Addr: netip.AddrFrom4([4]byte{198, 51, 100, byte(i)})}))
		} else {
			z.MustAdd(dnswire.NewRR(cut, 86400, &dnswire.NS{Host: "ns1.hosting.example"}))
			z.MustAdd(dnswire.NewRR(cut, 86400, &dnswire.NS{Host: "ns2.hosting.example"}))
		}
		if r.Intn(2) == 0 {
			digest := make([]byte, 32)
			r.Read(digest)
			z.MustAdd(dnswire.NewRR(cut, 86400, &dnswire.DS{
				KeyTag: uint16(r.Intn(1 << 16)), Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: digest,
			}))
		}
		ask = append(ask, "www."+cut)
	}
	return z, ask
}

// TestPlannedZoneAnswersLikeSignedZone: for seeded random zones, every
// answer of a freshly planned zone, with and without DO, in a random
// question order, equals byte for byte the answer of the same zone with
// every signature produced beforehand and the answer of the zone signed
// eagerly, record by record; reading emits no event and moves no
// generation; and the three zones write the same master file.
func TestPlannedZoneAnswersLikeSignedZone(t *testing.T) {
	types := []dnswire.Type{
		dnswire.TypeA, dnswire.TypeNS, dnswire.TypeSOA, dnswire.TypeDS, dnswire.TypeDNSKEY, dnswire.TypeTXT,
		dnswire.TypeNSEC, dnswire.TypeNSEC3PARAM, dnswire.TypeRRSIG, dnswire.TypeANY,
	}
	for seed := int64(1); seed <= 200; seed++ {
		build := func(sign func(*zone.Signer, *zone.Zone) error) (*zone.Zone, []string) {
			r := rand.New(rand.NewSource(seed))
			z, ask := propZone(r)
			if err := sign(propSigner(t, r), z); err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			return z, ask
		}
		planned, ask := build((*zone.Signer).Sign)
		forced, _ := build((*zone.Signer).Sign)
		eager, _ := build(zone.EagerSign)
		total := planned.PlannedSigs()
		if forced.Len() != eager.Len() || forced.PlannedSigs() != 0 || eager.PlannedSigs() != 0 || total == 0 {
			t.Fatalf("seed %d: forced zone has %d records and %d plans, eager %d and %d; %d planned",
				seed, forced.Len(), forced.PlannedSigs(), eager.Len(), eager.PlannedSigs(), total)
		}

		events := 0
		planned.OnEvent(func(zone.Event) { events++ })

		var queries []*dnswire.Message
		for _, name := range append(planned.Names(), ask...) {
			for _, typ := range types {
				for _, do := range []bool{false, true} {
					q := dnswire.NewQuery(uint16(len(queries)), name, typ)
					if do {
						q.SetEDNS(dnswire.ReplyUDPPayload, true)
					}
					queries = append(queries, q)
				}
			}
		}
		order := rand.New(rand.NewSource(seed ^ 0x5eed))
		order.Shuffle(len(queries), func(i, j int) { queries[i], queries[j] = queries[j], queries[i] })

		servers := map[string]*dnsserver.Authoritative{}
		for label, z := range map[string]*zone.Zone{"planned": planned, "forced": forced, "eager": eager} {
			servers[label] = dnsserver.NewAuthoritative()
			servers[label].AddZone(z)
		}
		answer := func(label string, q *dnswire.Message) []byte {
			wire, err := servers[label].ServeDNS(q).Pack()
			if err != nil {
				t.Fatalf("seed %d: packing the %s answer to %s/%v: %v", seed, label, q.Questions[0].Name, q.Questions[0].Type, err)
			}
			return wire
		}
		for pass := 0; pass < 2; pass++ { // the second pass reads what the first produced
			for _, q := range queries {
				got, want := answer("planned", q), answer("forced", q)
				if !bytes.Equal(got, want) || !bytes.Equal(want, answer("eager", q)) {
					t.Fatalf("seed %d pass %d: %s/%v DO=%v: planned, forced and eager zones answer differently",
						seed, pass, q.Questions[0].Name, q.Questions[0].Type, q.DNSSECOK())
				}
			}
		}
		if events != 0 {
			t.Fatalf("seed %d: reading emitted %d events", seed, events)
		}
		if left := planned.PlannedSigs(); left >= total {
			t.Fatalf("seed %d: %d of %d signatures still planned after every question was asked", seed, left, total)
		}

		var files [3]bytes.Buffer
		for i, z := range []*zone.Zone{planned, forced, eager} {
			if _, err := z.WriteTo(&files[i]); err != nil {
				t.Fatal(err)
			}
		}
		if !bytes.Equal(files[0].Bytes(), files[1].Bytes()) || !bytes.Equal(files[1].Bytes(), files[2].Bytes()) {
			t.Fatalf("seed %d: the planned, forced and eager zones write different master files", seed)
		}
		if planned.PlannedSigs() != 0 || planned.Len() != forced.Len() {
			t.Fatalf("seed %d: writing the zone left %d plans, %d records of %d", seed, planned.PlannedSigs(), planned.Len(), forced.Len())
		}
	}
}
