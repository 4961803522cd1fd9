package zone

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"net/netip"
	"slices"
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
			switch r.Intn(7) {
			case 0, 1:
				z.MustAdd(dnswire.NewRR(name, 300, &dnswire.TXT{Strings: []string{fmt.Sprint(step)}}))
			case 2:
				if err := signer.SignSet(z, name, dnswire.TypeTXT); err != nil {
					return false
				}
			case 3:
				z.Remove(name, typ)
			case 4:
				z.RemoveSigs(name, typ)
			case 5:
				z.RemoveType(typ)
			case 6:
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

// TestOwnerWalksMatchScanProperty: through any sequence of additions and
// removals, on a zone and on its clone, the walks that read one owner's
// RRsets from its type list — Reader.AppendAll with and without signatures,
// and LookupAll — return exactly what a scan of every RRset of the zone
// finds at that owner.
func TestOwnerWalksMatchScanProperty(t *testing.T) {
	signer := newTestSigner(t)
	types := []dnswire.Type{dnswire.TypeA, dnswire.TypeTXT, dnswire.TypeMX, dnswire.TypeAAAA, dnswire.TypeRRSIG}
	record := func(r *rand.Rand, name string, typ dnswire.Type) *dnswire.RR {
		switch typ {
		case dnswire.TypeA:
			return dnswire.NewRR(name, 300, &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(r.Intn(4))})})
		case dnswire.TypeAAAA:
			return dnswire.NewRR(name, 300, &dnswire.AAAA{Addr: netip.AddrFrom16([16]byte{0x20, 0x01, 15: byte(r.Intn(4))})})
		case dnswire.TypeMX:
			return dnswire.NewRR(name, 300, &dnswire.MX{Pref: uint16(r.Intn(4)), Host: "mx.example"})
		}
		return dnswire.NewRR(name, 300, &dnswire.TXT{Strings: []string{fmt.Sprint(r.Intn(4))}})
	}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		z := randomZone(r)
		universe := []string{z.Origin, "absent." + z.Origin}
		for i := 0; i < 4; i++ {
			universe = append(universe, fmt.Sprintf("h%d.%s", i, z.Origin))
		}
		for step := 0; step < 200; step++ {
			name, typ := universe[r.Intn(len(universe))], types[r.Intn(len(types))]
			switch r.Intn(7) {
			case 0, 1, 2:
				if typ != dnswire.TypeRRSIG {
					z.MustAdd(record(r, name, typ))
				}
			case 3:
				if err := signer.SignSet(z, name, types[r.Intn(len(types)-1)]); err != nil {
					t.Logf("seed %d step %d: %v", seed, step, err)
					return false
				}
			case 4:
				z.Remove(name, typ)
			case 5:
				z.RemoveSigs(name, typ)
			case 6:
				z = z.Clone()
			}
			for _, name := range universe {
				for _, sigs := range []bool{false, true} {
					var got []*dnswire.RR
					z.Read(nil, func(rd *Reader) { got = rd.AppendAll(nil, name, sigs) })
					if want := scanOwner(z, name, sigs); !slices.Equal(got, want) {
						t.Logf("seed %d step %d: AppendAll(%q, %v) = %v, scan %v", seed, step, name, sigs, got, want)
						return false
					}
				}
				all := z.LookupAll(name)
				n := 0
				for _, rr := range scanOwner(z, name, true) {
					if !slices.Contains(all[rr.Type], rr) {
						t.Logf("seed %d step %d: LookupAll(%q) misses %v", seed, step, name, rr)
						return false
					}
					n++
				}
				for _, set := range all {
					n -= len(set)
				}
				if n != 0 {
					t.Logf("seed %d step %d: LookupAll(%q) = %v, more than the scan finds", seed, step, name, all)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// scanOwner is the brute-force owner walk: every RRset of z at name, the
// RRSIGs only when sigs is set, in ascending type order.
func scanOwner(z *Zone, name string, sigs bool) []*dnswire.RR {
	z.mu.RLock()
	defer z.mu.RUnlock()
	var out []*dnswire.RR
	for k, set := range z.sets {
		if k.name == name && (sigs || k.typ != dnswire.TypeRRSIG) {
			out = append(out, set...)
		}
	}
	slices.SortStableFunc(out, func(a, b *dnswire.RR) int { return cmp.Compare(a.Type, b.Type) })
	return out
}
