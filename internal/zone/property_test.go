package zone

import (
	"bytes"
	"fmt"
	"math/rand"
	"net/netip"
	"testing"
	"testing/quick"

	"securepki.org/registrarsec/internal/dnswire"
)

// randomZone builds a random but valid zone for property tests.
func randomZone(r *rand.Rand) *Zone {
	origin := fmt.Sprintf("z%d.example", r.Intn(1000))
	z := New(origin)
	z.MustAdd(dnswire.NewRR(origin, 3600, &dnswire.SOA{
		MName: "ns1." + origin, RName: "admin." + origin,
		Serial: uint32(r.Intn(1 << 30)), Refresh: 7200, Retry: 3600,
		Expire: 1209600, Minimum: uint32(60 + r.Intn(3600)),
	}))
	z.MustAdd(dnswire.NewRR(origin, 3600, &dnswire.NS{Host: "ns1." + origin}))
	n := 1 + r.Intn(20)
	for i := 0; i < n; i++ {
		name := fmt.Sprintf("h%d.%s", r.Intn(30), origin)
		switch r.Intn(5) {
		case 0:
			z.MustAdd(dnswire.NewRR(name, uint32(60+r.Intn(86400)),
				&dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(r.Intn(256))})}))
		case 1:
			z.MustAdd(dnswire.NewRR(name, 300,
				&dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 0x0d, 0xb8, 15: byte(r.Intn(256))})}))
		case 2:
			z.MustAdd(dnswire.NewRR(name, 300,
				&dnswire.TXT{Strings: []string{fmt.Sprintf("v=%d", r.Intn(100))}}))
		case 3:
			z.MustAdd(dnswire.NewRR(name, 300,
				&dnswire.MX{Pref: uint16(r.Intn(100)), Host: "mx." + origin}))
		case 4:
			z.MustAdd(dnswire.NewRR(name, 300,
				&dnswire.CNAME{Target: fmt.Sprintf("c%d.%s", r.Intn(30), origin)}))
		}
	}
	return z
}

// TestZoneSerializeParseProperty: any zone survives a serialize→parse round
// trip with identical record count and identical re-serialization.
func TestZoneSerializeParseProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		z := randomZone(r)
		var buf bytes.Buffer
		if _, err := z.WriteTo(&buf); err != nil {
			return false
		}
		z2, err := Parse(bytes.NewReader(buf.Bytes()), "")
		if err != nil {
			return false
		}
		if z2.Origin != z.Origin || z2.Len() != z.Len() {
			return false
		}
		var buf2 bytes.Buffer
		if _, err := z2.WriteTo(&buf2); err != nil {
			return false
		}
		return bytes.Equal(buf.Bytes(), buf2.Bytes())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestSignedZoneAlwaysVerifiableProperty: signing any random zone yields a
// DS↔DNSKEY pair that matches and a signed SOA RRset.
func TestSignedZoneAlwaysVerifiableProperty(t *testing.T) {
	signer := newTestSigner(t)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		z := randomZone(r)
		if err := signer.Sign(z); err != nil {
			return false
		}
		dss, err := signer.DSRecords(z.Origin, dnswire.DigestSHA256)
		if err != nil || len(dss) == 0 {
			return false
		}
		keys := z.Lookup(z.Origin, dnswire.TypeDNSKEY)
		if len(keys) != 2 {
			return false
		}
		// Every non-RRSIG RRset at the apex must have a covering RRSIG.
		for typ := range z.LookupAll(z.Origin) {
			if typ == dnswire.TypeRRSIG {
				continue
			}
			if len(sigsFor(z, z.Origin, typ)) == 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// TestHasNameMatchesRRSetsProperty: through any sequence of additions and
// of every kind of removal, on a zone and on its clone, HasName and Names
// agree with a walk over the RRsets actually present. The names are few and
// the sequences long, so that owners lose their last RRset by every route.
func TestHasNameMatchesRRSetsProperty(t *testing.T) {
	signer := newTestSigner(t)
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeRRSIG}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		z := randomZone(r)
		universe := []string{z.Origin, "absent." + z.Origin}
		for i := 0; i < 6; i++ {
			universe = append(universe, fmt.Sprintf("h%d.%s", i, z.Origin))
		}
		for step := 0; step < 200; step++ {
			name, typ := universe[r.Intn(len(universe))], types[r.Intn(len(types))]
			switch r.Intn(8) {
			case 0, 1:
				z.MustAdd(dnswire.NewRR(name, 300, &dnswire.TXT{Strings: []string{fmt.Sprint(step)}}))
			case 2:
				if err := signer.SignSet(z, name, dnswire.TypeTXT); err != nil {
					return false
				}
			case 3:
				z.Remove(name, typ)
			case 4:
				z.RemoveName(name)
			case 5:
				z.RemoveSigs(name, typ)
			case 6:
				z.RemoveType(typ)
			case 7:
				z = z.Clone()
			}
			owners := make(map[string]bool)
			z.RRSets(func(name string, _ dnswire.Type, _ []*dnswire.RR) { owners[name] = true })
			for _, name := range universe {
				if z.HasName(name) != owners[name] {
					t.Logf("seed %d step %d: HasName(%q) = %v", seed, step, name, !owners[name])
					return false
				}
			}
			if len(z.Names()) != len(owners) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
