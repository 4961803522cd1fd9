package dnsserver

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// referenceZone builds one seeded zone under origin — "" for the root —
// holding every shape the renderer answers: hosts with several types, an
// empty non-terminal, CNAMEs (to a host, to nothing, out of the zone, and
// one whose target is not stored canonical), a signed delegation, an
// unsigned one, one with in-bailiwick glue, glue below it, and — once signed
// — a delegation whose DS was removed from under its signature. It returns
// the zone and the names worth asking about. Two calls with the same
// arguments build byte-identical zones: the signer is shared and Ed25519 is
// deterministic.
func referenceZone(t *testing.T, origin, signing string, signer *zone.Signer, seed int64) (*zone.Zone, []string) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	under := func(label string) string {
		if origin == "" {
			return label
		}
		return label + "." + origin
	}
	label := func() string {
		b := make([]byte, 3+rng.Intn(6))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	z := zone.New(origin)
	add := func(name string, ttl uint32, data dnswire.RData) {
		z.MustAdd(dnswire.NewRR(name, ttl, data))
	}
	add(origin, 3600, &dnswire.SOA{MName: under("ns1"), RName: under("admin"), Serial: 7, Refresh: 1, Retry: 2, Expire: 3, Minimum: 300})
	add(origin, 3600, &dnswire.NS{Host: under("ns1")})
	add(under("ns1"), 3600, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.53")})
	names := []string{origin, under("ns1"), under("zzzz-after-everything"), under("0-before-everything")}
	var hosts []string
	for i := 0; i < 12; i++ {
		host := under(label())
		hosts = append(hosts, host)
		add(host, 300, &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(i)})})
		if i%2 == 0 {
			add(host, 300, &dnswire.AAAA{Addr: netip.MustParseAddr("2001:db8::1")})
			add(host, 300, &dnswire.TXT{Strings: []string{label()}})
		}
		names = append(names, host, label()+"."+host, under(label()))
	}
	ent := "leaf.ent." + hosts[0]
	add(ent, 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.99")})
	names = append(names, ent, "ent."+hosts[0], "nx.ent."+hosts[0])

	for i, target := range []string{hosts[1], under("nowhere"), "elsewhere.invalid", strings.ToUpper(hosts[2])} {
		alias := under(fmt.Sprintf("alias%d", i))
		add(alias, 300, &dnswire.CNAME{Target: target})
		names = append(names, alias)
	}

	ds := func(i int) *dnswire.DS {
		return &dnswire.DS{KeyTag: uint16(100 + i), Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: bytes.Repeat([]byte{byte(i)}, 32)}
	}
	cuts := []string{under("signed-" + label()), under("insecure-" + label()), under("glued-" + label()), under("orphan-" + label())}
	for _, cut := range cuts {
		add(cut, 86400, &dnswire.NS{Host: "ns1.operator.example"})
		names = append(names, cut, "www."+cut, "a.b."+cut)
	}
	add(cuts[0], 86400, ds(0))
	add(cuts[3], 86400, ds(3))
	add(cuts[2], 86400, &dnswire.NS{Host: "ns2." + cuts[2]})
	add(cuts[2], 86400, &dnswire.NS{Host: "NS3." + cuts[2]})
	add("ns3."+cuts[2], 3600, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.3")})
	add("ns2."+cuts[2], 3600, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")})
	add("ns2."+cuts[2], 3600, &dnswire.AAAA{Addr: netip.MustParseAddr("2001:db8::2")})
	names = append(names, "ns2."+cuts[2])

	if signing != "unsigned" {
		s := *signer
		s.AddNSEC = signing == "nsec"
		if signing == "nsec3" {
			s.NSEC3 = &dnswire.NSEC3PARAM{HashAlg: dnswire.NSEC3HashSHA1, Iterations: 2, Salt: []byte{0xab}}
		}
		if err := s.Sign(z); err != nil {
			t.Fatal(err)
		}
		z.Remove(cuts[3], dnswire.TypeDS) // its signature stays
	}
	return z, names
}

// TestAnswerMatchesReference holds the renderer over the zone view — behind
// ServeDNS and behind the wire path — to the reference renderer it replaced
// (oracle_test.go): for seeded zones of every signing kind, under an
// ordinary origin and under the root, every name × type × EDNS state packs
// to the same bytes. Each side answers from its own copy of the zone, cold
// (every signature it needs still planned) and then warm.
func TestAnswerMatchesReference(t *testing.T) {
	signer, err := zone.NewSigner(dnswire.AlgED25519, time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC))
	if err != nil {
		t.Fatal(err)
	}
	types := []dnswire.Type{
		dnswire.TypeA, dnswire.TypeAAAA, dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeSOA, dnswire.TypeTXT,
		dnswire.TypeCNAME, dnswire.TypeMX, dnswire.TypeDNSKEY, dnswire.TypeNSEC, dnswire.TypeNSEC3PARAM,
		dnswire.TypeRRSIG, dnswire.TypeANY,
	}
	for _, origin := range []string{"example", ""} {
		for _, signing := range []string{"unsigned", "planned", "nsec", "nsec3"} {
			for seed := int64(1); seed <= 2; seed++ {
				t.Run(fmt.Sprintf("origin=%q/%s/seed=%d", origin, signing, seed), func(t *testing.T) {
					zNew, names := referenceZone(t, origin, signing, signer, seed)
					zWire, _ := referenceZone(t, origin, signing, signer, seed)
					zRef, _ := referenceZone(t, origin, signing, signer, seed)
					hosts := [3]*Authoritative{NewAuthoritative(), NewSharded(ShardedConfig{}), NewAuthoritative()}
					for i, z := range []*zone.Zone{zNew, zWire, zRef} {
						hosts[i].AddZone(z)
					}
					if signing != "unsigned" && zNew.PlannedSigs() == 0 {
						t.Fatal("fixture: nothing is planned")
					}
					names = append(names, "out.of.zone.invalid")
					sc := NewWireScratch()
					for _, pass := range []string{"cold", "warm"} {
						id := uint16(0)
						for _, name := range names {
							for _, typ := range types {
								for edns := 0; edns < 3; edns++ {
									id++
									q := dnswire.NewQuery(id, name, typ)
									q.RecursionDesired = id%2 == 0
									if edns > 0 {
										q.SetEDNS(1232, edns == 2)
									}
									pkt, err := q.Pack()
									if err != nil {
										t.Fatal(err)
									}
									want, err := ReferenceServeDNS(hosts[2], q).Pack()
									if err != nil {
										t.Fatal(err)
									}
									got, err := hosts[0].ServeDNS(q).Pack()
									if err != nil {
										t.Fatal(err)
									}
									if !bytes.Equal(got, want) {
										t.Fatalf("%s: %s %v edns=%d: ServeDNS diverges from the reference:\ngot:  %x\nwant: %x", pass, name, typ, edns, got, want)
									}
									if got := hosts[1].ServeWireFull(nil, pkt, sc, false); !bytes.Equal(got, want) {
										t.Fatalf("%s: %s %v edns=%d: the wire path diverges from the reference:\ngot:  %x\nwant: %x", pass, name, typ, edns, got, want)
									}
								}
							}
						}
					}
					if a, b, c := zNew.PlannedSigs(), zWire.PlannedSigs(), zRef.PlannedSigs(); a != c || b != c {
						t.Errorf("signatures left planned: %d behind ServeDNS, %d behind the wire path, %d behind the reference", a, b, c)
					}
				})
			}
		}
	}
}
