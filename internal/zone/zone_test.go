package zone

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
)

var testNow = time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)

func a(t *testing.T, z *Zone, name string, ip string) {
	t.Helper()
	if err := z.Add(dnswire.NewRR(name, 300, &dnswire.A{Addr: netip.MustParseAddr(ip)})); err != nil {
		t.Fatal(err)
	}
}

func buildExampleZone(t *testing.T) *Zone {
	t.Helper()
	z := New("example.com")
	z.MustAdd(dnswire.NewRR("example.com", 3600, &dnswire.SOA{
		MName: "ns1.example.com", RName: "hostmaster.example.com",
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	z.MustAdd(dnswire.NewRR("example.com", 3600, &dnswire.NS{Host: "ns1.example.com"}))
	z.MustAdd(dnswire.NewRR("example.com", 3600, &dnswire.NS{Host: "ns2.example.com"}))
	a(t, z, "ns1.example.com", "192.0.2.1")
	a(t, z, "ns2.example.com", "192.0.2.2")
	a(t, z, "www.example.com", "192.0.2.80")
	// A delegation with glue.
	z.MustAdd(dnswire.NewRR("sub.example.com", 3600, &dnswire.NS{Host: "ns1.sub.example.com"}))
	a(t, z, "ns1.sub.example.com", "192.0.2.53")
	return z
}

func TestZoneBasics(t *testing.T) {
	z := buildExampleZone(t)
	if z.SOA() == nil {
		t.Fatal("SOA missing")
	}
	if got := z.Lookup("www.example.com", dnswire.TypeA); len(got) != 1 {
		t.Errorf("Lookup www A: %d records", len(got))
	}
	if got := z.Lookup("WWW.EXAMPLE.COM", dnswire.TypeA); len(got) != 1 {
		t.Error("Lookup must canonicalize the name")
	}
	if got := z.Lookup("nope.example.com", dnswire.TypeA); got != nil {
		t.Error("Lookup of absent name returned records")
	}
	if !z.HasName("ns1.example.com") || z.HasName("ghost.example.com") {
		t.Error("HasName wrong")
	}
	all := z.LookupAll("example.com")
	if len(all[dnswire.TypeNS]) != 2 || len(all[dnswire.TypeSOA]) != 1 {
		t.Errorf("LookupAll: %v", all)
	}
	// Duplicates collapse.
	before := z.Len()
	a(t, z, "www.example.com", "192.0.2.80")
	if z.Len() != before {
		t.Error("duplicate record not collapsed")
	}
	// Out-of-bailiwick records rejected.
	err := z.Add(dnswire.NewRR("other.org", 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.9")}))
	if err == nil {
		t.Error("out-of-bailiwick record accepted")
	}
}

func TestZoneRemove(t *testing.T) {
	z := buildExampleZone(t)
	z.Remove("www.example.com", dnswire.TypeA)
	if z.Lookup("www.example.com", dnswire.TypeA) != nil {
		t.Error("Remove left records")
	}
}

func TestDelegation(t *testing.T) {
	z := buildExampleZone(t)
	cut, ns := z.DelegationFor("deep.host.sub.example.com")
	if cut != "sub.example.com" || len(ns) != 1 {
		t.Errorf("DelegationFor = %q, %d NS", cut, len(ns))
	}
	if cut, _ := z.DelegationFor("www.example.com"); cut != "" {
		t.Errorf("www should not be delegated, got cut %q", cut)
	}
	// The apex NS RRset is not a delegation.
	if cut, _ := z.DelegationFor("example.com"); cut != "" {
		t.Errorf("apex reported as delegation: %q", cut)
	}
	if cut, _ := z.DelegationFor("sub.example.com"); cut != "sub.example.com" {
		t.Errorf("the cut itself: got cut %q", cut)
	}
}

func TestBumpSerial(t *testing.T) {
	z := buildExampleZone(t)
	held := z.SOA()
	before := held.Data.(*dnswire.SOA).Serial
	z.BumpSerial()
	if got := z.SOA().Data.(*dnswire.SOA).Serial; got != before+1 {
		t.Errorf("serial %d, want %d", got, before+1)
	}
	// A reader packs the record it looked up after the zone lock is gone:
	// the bump must replace the record, not write through it.
	if got := held.Data.(*dnswire.SOA).Serial; got != before {
		t.Errorf("BumpSerial wrote through a record a reader holds: serial %d, was %d", got, before)
	}
}

func TestNamesCanonicalOrder(t *testing.T) {
	z := buildExampleZone(t)
	names := z.Names()
	for i := 1; i < len(names); i++ {
		if dnswire.CompareCanonical(names[i-1], names[i]) >= 0 {
			t.Errorf("names out of order: %q >= %q", names[i-1], names[i])
		}
	}
	if names[0] != "example.com" {
		t.Errorf("apex should sort first, got %q", names[0])
	}
}

func newTestSigner(t testing.TB) *Signer {
	t.Helper()
	s, err := NewSigner(dnswire.AlgED25519, testNow)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSignZone(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	s.AddNSEC = true
	if err := s.Sign(z); err != nil {
		t.Fatalf("Sign: %v", err)
	}
	keys := z.Lookup("example.com", dnswire.TypeDNSKEY)
	if len(keys) != 2 {
		t.Fatalf("DNSKEY count = %d", len(keys))
	}
	// Every authoritative RRset must have a verifying RRSIG.
	dnskeys := []*dnswire.DNSKEY{
		keys[0].Data.(*dnswire.DNSKEY), keys[1].Data.(*dnswire.DNSKEY),
	}
	checked := 0
	z.RRSets(func(name string, typ dnswire.Type, rrs []*dnswire.RR) {
		if typ == dnswire.TypeRRSIG {
			return
		}
		cut, _ := z.DelegationFor(name)
		isAuth := cut == "" || (name == cut && (typ == dnswire.TypeDS || typ == dnswire.TypeNSEC))
		sigs := sigsFor(z, name, typ)
		if !isAuth {
			if len(sigs) != 0 {
				t.Errorf("%s/%v: glue/delegation signed", name, typ)
			}
			return
		}
		if len(sigs) == 0 {
			t.Errorf("%s/%v: no RRSIG", name, typ)
			return
		}
		ok := false
		for _, sig := range sigs {
			if dnssec.VerifyWithAnyKey(rrs, sig, dnskeys, testNow) == nil {
				ok = true
			}
		}
		if !ok {
			t.Errorf("%s/%v: RRSIG does not verify", name, typ)
		}
		checked++
	})
	if checked < 5 {
		t.Errorf("only %d RRsets verified", checked)
	}
	// The DNSKEY RRset must be signed by the KSK specifically.
	keySigs := sigsFor(z, "example.com", dnswire.TypeDNSKEY)
	foundKSK := false
	for _, sig := range keySigs {
		if sig.KeyTag == s.KSK.KeyTag() {
			foundKSK = true
		}
	}
	if !foundKSK {
		t.Error("DNSKEY RRset not signed by the KSK")
	}
	// NSEC chain: every authoritative name has an NSEC, and the chain loops.
	nsecs := 0
	z.RRSets(func(name string, typ dnswire.Type, rrs []*dnswire.RR) {
		if typ == dnswire.TypeNSEC {
			nsecs++
		}
	})
	if nsecs == 0 {
		t.Error("no NSEC records after signing with AddNSEC")
	}
}

func sigsFor(z *Zone, name string, covered dnswire.Type) []*dnswire.RRSIG {
	var out []*dnswire.RRSIG
	for _, rr := range z.Lookup(name, dnswire.TypeRRSIG) {
		sig := rr.Data.(*dnswire.RRSIG)
		if sig.TypeCovered == covered {
			out = append(out, sig)
		}
	}
	return out
}

func TestResignIsIdempotent(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	n1 := z.Len()
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	if z.Len() != n1 {
		t.Errorf("re-sign changed record count: %d -> %d", n1, z.Len())
	}
}

func TestUnsign(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	if err := s.PublishCDS(z, dnswire.DigestSHA256); err != nil {
		t.Fatal(err)
	}
	Unsign(z)
	for _, typ := range []dnswire.Type{
		dnswire.TypeDNSKEY, dnswire.TypeRRSIG, dnswire.TypeNSEC,
		dnswire.TypeCDS, dnswire.TypeCDNSKEY,
	} {
		found := false
		z.RRSets(func(_ string, t2 dnswire.Type, _ []*dnswire.RR) {
			if t2 == typ {
				found = true
			}
		})
		if found {
			t.Errorf("Unsign left %v records", typ)
		}
	}
}

func TestPublishCDS(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	if err := s.PublishCDS(z, dnswire.DigestSHA256); err != nil {
		t.Fatal(err)
	}
	cds := z.Lookup("example.com", dnswire.TypeCDS)
	if len(cds) != 1 {
		t.Fatalf("CDS count = %d", len(cds))
	}
	// The CDS must match the KSK the parent should trust.
	got := cds[0].Data.(*dnswire.CDS)
	if !dnssec.MatchDS("example.com", &got.DS, s.KSK.DNSKEY()) {
		t.Error("published CDS does not match the KSK")
	}
	if len(z.Lookup("example.com", dnswire.TypeCDNSKEY)) != 1 {
		t.Error("CDNSKEY missing")
	}
}

func TestDSRecordsMatchChain(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	dss, err := s.DSRecords("example.com", dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	keys := z.Lookup("example.com", dnswire.TypeDNSKEY)
	var dnskeys []*dnswire.DNSKEY
	for _, rr := range keys {
		dnskeys = append(dnskeys, rr.Data.(*dnswire.DNSKEY))
	}
	if !dnssec.MatchAnyDS("example.com", dss, dnskeys) {
		t.Error("DSRecords do not match the published DNSKEYs")
	}
}

func TestSignerRequiresKeys(t *testing.T) {
	z := buildExampleZone(t)
	s := &Signer{}
	if err := s.Sign(z); err == nil {
		t.Error("Sign without keys succeeded")
	}
}

func TestClone(t *testing.T) {
	z := buildExampleZone(t)
	c := z.Clone()
	c.Remove("www.example.com", dnswire.TypeA)
	if z.Lookup("www.example.com", dnswire.TypeA) == nil {
		t.Error("Clone shares RRset storage with original")
	}
	if c.Origin != z.Origin || c.Len() >= z.Len() {
		t.Errorf("clone: origin %q len %d vs %d", c.Origin, c.Len(), z.Len())
	}
}

func TestSignSetIncremental(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	// Mutate one RRset and re-sign only it.
	z.Remove("www.example.com", dnswire.TypeA)
	a(t, z, "www.example.com", "192.0.2.99")
	if err := s.SignSet(z, "www.example.com", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	sigs := sigsFor(z, "www.example.com", dnswire.TypeA)
	if len(sigs) != 1 {
		t.Fatalf("sigs after SignSet: %d", len(sigs))
	}
	rrs := z.Lookup("www.example.com", dnswire.TypeA)
	if err := dnssec.VerifyRRSet(rrs, sigs[0], s.ZSK.DNSKEY(), testNow); err != nil {
		t.Errorf("re-signed RRset does not verify: %v", err)
	}
	// SignSet of an absent RRset just clears signatures.
	z.Remove("www.example.com", dnswire.TypeA)
	if err := s.SignSet(z, "www.example.com", dnswire.TypeA); err != nil {
		t.Fatal(err)
	}
	if len(sigsFor(z, "www.example.com", dnswire.TypeA)) != 0 {
		t.Error("stale signature after removing the RRset")
	}
}

func TestRemoveSigsSelective(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	nsBefore := len(sigsFor(z, "example.com", dnswire.TypeNS))
	soaBefore := len(sigsFor(z, "example.com", dnswire.TypeSOA))
	if nsBefore == 0 || soaBefore == 0 {
		t.Fatal("fixture lacks signatures")
	}
	z.RemoveSigs("example.com", dnswire.TypeNS)
	if len(sigsFor(z, "example.com", dnswire.TypeNS)) != 0 {
		t.Error("NS sigs survived RemoveSigs")
	}
	if len(sigsFor(z, "example.com", dnswire.TypeSOA)) != soaBefore {
		t.Error("RemoveSigs removed unrelated signatures")
	}
}

func TestSignZoneNSEC3(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	s.NSEC3 = &dnswire.NSEC3PARAM{HashAlg: dnswire.NSEC3HashSHA1, Iterations: 2, Salt: []byte{0x01, 0x02}}
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	if len(z.Lookup("example.com", dnswire.TypeNSEC3PARAM)) != 1 {
		t.Error("NSEC3PARAM missing at apex")
	}
	// One NSEC3 per authoritative name, all signed, next-hash chain closed.
	var nsec3s []*dnswire.NSEC3
	z.RRSets(func(name string, typ dnswire.Type, rrs []*dnswire.RR) {
		if typ != dnswire.TypeNSEC3 {
			return
		}
		nsec3s = append(nsec3s, rrs[0].Data.(*dnswire.NSEC3))
		if len(sigsFor(z, name, dnswire.TypeNSEC3)) == 0 {
			t.Errorf("NSEC3 at %s unsigned", name)
		}
	})
	// Authoritative names: apex, ns1, ns2, www, sub (cut) = 5; glue
	// ns1.sub is excluded.
	if len(nsec3s) != 5 {
		t.Fatalf("NSEC3 count = %d, want 5", len(nsec3s))
	}
	// The next-hash pointers form a single closed cycle.
	hashes := map[string]bool{}
	for _, n3 := range nsec3s {
		hashes[string(n3.NextHashed)] = true
	}
	if len(hashes) != len(nsec3s) {
		t.Error("NSEC3 chain has duplicate next pointers")
	}
	// Re-signing with plain NSEC removes the NSEC3 material.
	s.NSEC3 = nil
	s.AddNSEC = true
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	found := false
	z.RRSets(func(_ string, typ dnswire.Type, _ []*dnswire.RR) {
		if typ == dnswire.TypeNSEC3 || typ == dnswire.TypeNSEC3PARAM {
			found = true
		}
	})
	if found {
		t.Error("NSEC3 records survived re-signing with NSEC")
	}
}

func TestParseNSEC3Records(t *testing.T) {
	// Presentation-format parsing of NSEC3/NSEC3PARAM, incl. the "-" salt.
	body := `$ORIGIN example.com.
@ 300 IN NSEC3PARAM 1 0 5 0102
@ 300 IN NSEC3PARAM 1 0 0 -
0p9mhaveqvm6t7vbl5lop2u3t2rp3tom 300 IN NSEC3 1 1 5 0102 2t7b4g4vsa5smi47k61mv5bv1a22bojr A RRSIG
`
	z, err := Parse(strings.NewReader(body), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	params := z.Lookup("example.com", dnswire.TypeNSEC3PARAM)
	if len(params) != 2 {
		t.Fatalf("NSEC3PARAM count %d", len(params))
	}
	n3 := z.Lookup("0p9mhaveqvm6t7vbl5lop2u3t2rp3tom.example.com", dnswire.TypeNSEC3)
	if len(n3) != 1 {
		t.Fatal("NSEC3 not parsed")
	}
	rec := n3[0].Data.(*dnswire.NSEC3)
	if rec.Flags != 1 /* opt-out */ || rec.Iterations != 5 || len(rec.NextHashed) != 20 {
		t.Errorf("NSEC3 fields: %+v", rec)
	}
	// And it round-trips through the serializer.
	var buf bytes.Buffer
	if _, err := z.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	if _, err := Parse(bytes.NewReader(buf.Bytes()), ""); err != nil {
		t.Fatalf("reparse: %v\n%s", err, buf.String())
	}
	// Malformed NSEC3 inputs are rejected.
	for _, bad := range []string{
		"x IN NSEC3 1 0 5\n",         // missing fields
		"x IN NSEC3 1 0 5 zz aabb\n", // bad salt hex
		"x IN NSEC3 1 0 5 - !!!!\n",  // bad base32
		"x IN NSEC3PARAM 1 0\n",      // short
		"x IN NSEC3PARAM 1 0 5 zz\n", // bad salt
	} {
		if _, err := Parse(strings.NewReader(bad), "example.com"); err == nil {
			t.Errorf("accepted %q", bad)
		}
	}
}

func TestParseRRSIGEpochTime(t *testing.T) {
	// RRSIG timestamps parse both as YYYYMMDDHHmmSS and raw epoch seconds.
	body := "x 300 IN RRSIG A 8 2 300 1483142400 20161130000000 60485 example.com. AAAA\n"
	z, err := Parse(strings.NewReader(body), "example.com")
	if err != nil {
		t.Fatal(err)
	}
	sig := z.Lookup("x.example.com", dnswire.TypeRRSIG)[0].Data.(*dnswire.RRSIG)
	if sig.Expiration != 1483142400 {
		t.Errorf("expiration: %d", sig.Expiration)
	}
	if _, err := Parse(strings.NewReader("x IN RRSIG A 8 2 300 nottime 1 1 e. AA\n"), "example.com"); err == nil {
		t.Error("bad RRSIG time accepted")
	}
}
