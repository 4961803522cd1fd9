package dnswire

import (
	"encoding/base64"
	"math/rand"
	"net/netip"
	"reflect"
	"testing"
	"testing/quick"
)

func mustPack(t *testing.T, m *Message) []byte {
	t.Helper()
	b, err := m.Pack()
	if err != nil {
		t.Fatalf("Pack: %v", err)
	}
	return b
}

func TestMessageRoundTrip(t *testing.T) {
	m := &Message{
		Header: Header{
			ID: 0x1234, Response: true, Authoritative: true,
			RecursionDesired: true, AuthenticData: true, RCode: RCodeSuccess,
		},
		Questions: []Question{{Name: "example.com", Type: TypeA, Class: ClassINET}},
		Answers: []*RR{
			NewRR("example.com", 300, &A{Addr: netip.MustParseAddr("192.0.2.1")}),
			NewRR("example.com", 300, &A{Addr: netip.MustParseAddr("192.0.2.2")}),
		},
		Authority: []*RR{
			NewRR("example.com", 3600, &NS{Host: "ns1.example.com"}),
			NewRR("example.com", 3600, &NS{Host: "ns2.example.com"}),
		},
		Additional: []*RR{
			NewRR("ns1.example.com", 3600, &AAAA{Addr: netip.MustParseAddr("2001:db8::1")}),
		},
	}
	b := mustPack(t, m)
	var got Message
	if err := got.Unpack(b); err != nil {
		t.Fatalf("Unpack: %v", err)
	}
	if !reflect.DeepEqual(got.Header, m.Header) {
		t.Errorf("header mismatch:\n got %+v\nwant %+v", got.Header, m.Header)
	}
	if !reflect.DeepEqual(got.Questions, m.Questions) {
		t.Errorf("questions mismatch: %+v", got.Questions)
	}
	if len(got.Answers) != 2 || len(got.Authority) != 2 || len(got.Additional) != 1 {
		t.Fatalf("section counts: %d/%d/%d", len(got.Answers), len(got.Authority), len(got.Additional))
	}
	for i := range m.Answers {
		if !reflect.DeepEqual(got.Answers[i], m.Answers[i]) {
			t.Errorf("answer %d: got %v want %v", i, got.Answers[i], m.Answers[i])
		}
	}
}

func TestMessageCompressionSavesSpace(t *testing.T) {
	m := &Message{
		Questions: []Question{{Name: "a.very.long.domain.example.com", Type: TypeNS, Class: ClassINET}},
	}
	for i := 0; i < 10; i++ {
		m.Answers = append(m.Answers, NewRR("a.very.long.domain.example.com", 60,
			&TXT{Strings: []string{"x"}}))
	}
	b := mustPack(t, m)
	// Each repeated owner should cost 2 octets, not 32.
	if len(b) > 12+36+10*(2+10+4) {
		t.Errorf("compression ineffective: %d octets", len(b))
	}
	var got Message
	if err := got.Unpack(b); err != nil {
		t.Fatal(err)
	}
	if got.Answers[9].Name != "a.very.long.domain.example.com" {
		t.Errorf("decompressed name: %q", got.Answers[9].Name)
	}
}

func allRDataSamples() []RData {
	key, _ := base64.StdEncoding.DecodeString("AQPSKmynfzW4kyBvkqbu")
	return []RData{
		&A{Addr: netip.MustParseAddr("203.0.113.7")},
		&AAAA{Addr: netip.MustParseAddr("2001:db8::7")},
		&NS{Host: "ns1.registrar.example"},
		&CNAME{Target: "canonical.example"},
		&PTR{Target: "host.example"},
		&MX{Pref: 10, Host: "mx.example"},
		&TXT{Strings: []string{"v=spf1 -all", "second"}},
		&SOA{MName: "ns1.example", RName: "hostmaster.example",
			Serial: 2016123100, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 3600},
		&DNSKEY{Flags: FlagsKSK, Protocol: 3, Algorithm: AlgRSASHA256, PublicKey: key},
		&CDNSKEY{DNSKEY: DNSKEY{Flags: FlagsZSK, Protocol: 3, Algorithm: AlgECDSAP256SHA256, PublicKey: key}},
		&RRSIG{TypeCovered: TypeA, Algorithm: AlgRSASHA256, Labels: 2,
			OriginalTTL: 300, Expiration: 1483142400, Inception: 1480464000,
			KeyTag: 60485, SignerName: "example.com", Signature: key},
		&DS{KeyTag: 60485, Algorithm: AlgRSASHA256, DigestType: DigestSHA256,
			Digest: []byte{0x2b, 0xb1, 0x83, 0xaf}},
		&CDS{DS: DS{KeyTag: 1, Algorithm: AlgDelete, DigestType: 0, Digest: []byte{0}}},
		&NSEC{NextName: "next.example.com", Types: []Type{TypeA, TypeNS, TypeRRSIG, TypeNSEC, TypeDNSKEY}},
		&NSEC3{HashAlg: NSEC3HashSHA1, Flags: 1 /* opt-out */, Iterations: 12,
			Salt: []byte{0xaa, 0xbb, 0xcc, 0xdd}, NextHashed: bytes20(),
			Types: []Type{TypeA, TypeRRSIG}},
		&NSEC3PARAM{HashAlg: NSEC3HashSHA1, Iterations: 12, Salt: []byte{0xaa, 0xbb}},
		&Generic{T: Type(9999), Data: []byte{1, 2, 3}},
	}
}

// bytes20 returns a deterministic 20-octet hash stand-in.
func bytes20() []byte {
	out := make([]byte, 20)
	for i := range out {
		out[i] = byte(i * 11)
	}
	return out
}

func TestRDataRoundTrip(t *testing.T) {
	for _, rd := range allRDataSamples() {
		rr := NewRR("owner.example.com", 42, rd)
		m := &Message{Answers: []*RR{rr}}
		b := mustPack(t, m)
		var got Message
		if err := got.Unpack(b); err != nil {
			t.Fatalf("%T: unpack: %v", rd, err)
		}
		if len(got.Answers) != 1 {
			t.Fatalf("%T: no answer decoded", rd)
		}
		if !reflect.DeepEqual(got.Answers[0].Data, rd) {
			t.Errorf("%T round trip:\n got %#v\nwant %#v", rd, got.Answers[0].Data, rd)
		}
		if got.Answers[0].Data.String() != rd.String() {
			t.Errorf("%T String mismatch: %q vs %q", rd, got.Answers[0].Data.String(), rd.String())
		}
	}
}

func TestKeyTagHandComputed(t *testing.T) {
	// RFC 4034 Appendix B: sum the RDATA as big-endian 16-bit words (odd
	// trailing octet shifted left 8), then fold the carries once.
	//
	// Wire form here is 01 01 | 03 | 08 | 01 02 03:
	//   words 0x0101 + 0x0308 + 0x0102 + 0x0300 = 0x080B = 2059, no carries.
	dk := &DNSKEY{Flags: 0x0101, Protocol: 3, Algorithm: 8, PublicKey: []byte{1, 2, 3}}
	if tag := dk.KeyTag(); tag != 2059 {
		t.Errorf("KeyTag = %d, want 2059", tag)
	}
	// Carry folding: words 0xFFFF * 3 = 0x2FFFD; fold: 0xFFFD + 0x2 = 0xFFFF.
	dk2 := &DNSKEY{Flags: 0xFFFF, Protocol: 0xFF, Algorithm: 0xFF, PublicKey: []byte{0xFF, 0xFF}}
	if tag := dk2.KeyTag(); tag != 0xFFFF {
		t.Errorf("KeyTag carry fold = %#x, want 0xFFFF", tag)
	}
	// An independent straightforward implementation over a pseudo-random key
	// must agree with the production one.
	pk := make([]byte, 129) // odd length on purpose
	for i := range pk {
		pk[i] = byte(i*37 + 11)
	}
	dk3 := &DNSKEY{Flags: FlagsKSK, Protocol: 3, Algorithm: AlgRSASHA256, PublicKey: pk}
	wire, _ := dk3.appendRData(nil)
	var ref uint32
	for i := 0; i+1 < len(wire); i += 2 {
		ref += uint32(wire[i])<<8 | uint32(wire[i+1])
	}
	if len(wire)%2 == 1 {
		ref += uint32(wire[len(wire)-1]) << 8
	}
	ref += ref >> 16 & 0xFFFF
	if got := dk3.KeyTag(); got != uint16(ref) {
		t.Errorf("KeyTag = %d, reference = %d", got, uint16(ref))
	}
}

func TestEDNS(t *testing.T) {
	q := NewQuery(1, "example.com", TypeDNSKEY)
	if q.DNSSECOK() {
		t.Error("DO set on plain query")
	}
	if q.MaxPayload() != 512 {
		t.Errorf("MaxPayload = %d", q.MaxPayload())
	}
	q.SetEDNS(4096, true)
	if !q.DNSSECOK() || q.MaxPayload() != 4096 {
		t.Errorf("EDNS not applied: DO=%v size=%d", q.DNSSECOK(), q.MaxPayload())
	}
	// Survives a pack/unpack cycle.
	b := mustPack(t, q)
	var got Message
	if err := got.Unpack(b); err != nil {
		t.Fatal(err)
	}
	if !got.DNSSECOK() || got.MaxPayload() != 4096 {
		t.Error("EDNS lost in round trip")
	}
	// SetEDNS replaces rather than duplicates.
	got.SetEDNS(1232, false)
	nOPT := 0
	for _, rr := range got.Additional {
		if rr.Type == TypeOPT {
			nOPT++
		}
	}
	if nOPT != 1 {
		t.Errorf("%d OPT records after SetEDNS twice", nOPT)
	}
	if got.DNSSECOK() {
		t.Error("DO bit should be cleared")
	}
}

func TestReplyMirrorsEDNS(t *testing.T) {
	q := NewQuery(7, "example.com", TypeA)
	q.SetEDNS(1232, true)
	r := q.Reply()
	if r.ID != 7 || !r.Response {
		t.Error("Reply header wrong")
	}
	if !r.DNSSECOK() {
		t.Error("Reply should mirror DO bit")
	}
	if len(r.Questions) != 1 || r.Questions[0].Name != "example.com" {
		t.Error("Reply should carry the question")
	}
}

func TestTypeBitmapRoundTrip(t *testing.T) {
	f := func(raw []uint16) bool {
		seen := map[Type]bool{}
		var types []Type
		for _, v := range raw {
			tt := Type(v)
			if !seen[tt] {
				seen[tt] = true
				types = append(types, tt)
			}
		}
		buf, err := appendTypeBitmap(nil, types)
		if err != nil {
			return false
		}
		got, err := parseTypeBitmap(buf)
		if err != nil {
			return false
		}
		if len(got) != len(types) {
			return false
		}
		for _, tt := range got {
			if !seen[tt] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnpackFailureInjection(t *testing.T) {
	m := &Message{
		Questions: []Question{{Name: "example.com", Type: TypeA, Class: ClassINET}},
		Answers:   []*RR{NewRR("example.com", 60, &A{Addr: netip.MustParseAddr("192.0.2.1")})},
	}
	good := mustPack(t, m)
	// Every strict prefix must fail to unpack, never panic.
	for i := 0; i < len(good); i++ {
		var got Message
		if err := got.Unpack(good[:i]); err == nil {
			t.Errorf("truncation at %d accepted", i)
		}
	}
	// Trailing garbage must be rejected.
	var got Message
	if err := got.Unpack(append(append([]byte{}, good...), 0xff)); err == nil {
		t.Error("trailing garbage accepted")
	}
}

func TestUnpackRandomBytesNeverPanics(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		b := make([]byte, r.Intn(200))
		r.Read(b)
		var m Message
		_ = m.Unpack(b) // must not panic
	}
}

func TestMessageRoundTripProperty(t *testing.T) {
	samples := allRDataSamples()
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		m := &Message{Header: Header{ID: uint16(r.Intn(1 << 16)), Response: r.Intn(2) == 0}}
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			name := randomName(r)
			m.Answers = append(m.Answers, NewRR(name, uint32(r.Intn(86400)), samples[r.Intn(len(samples))]))
		}
		b, err := m.Pack()
		if err != nil {
			return false
		}
		var got Message
		if err := got.Unpack(b); err != nil {
			return false
		}
		if len(got.Answers) != len(m.Answers) {
			return false
		}
		for i := range m.Answers {
			if !reflect.DeepEqual(got.Answers[i], m.Answers[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTypeAndClassStrings(t *testing.T) {
	if TypeDNSKEY.String() != "DNSKEY" || Type(999).String() != "TYPE999" {
		t.Error("Type.String")
	}
	if got, ok := TypeFromString("CDNSKEY"); !ok || got != TypeCDNSKEY {
		t.Error("TypeFromString mnemonic")
	}
	if got, ok := TypeFromString("TYPE999"); !ok || got != Type(999) {
		t.Error("TypeFromString TYPEnnn")
	}
	if _, ok := TypeFromString("NOPE"); ok {
		t.Error("TypeFromString accepted junk")
	}
	if ClassINET.String() != "IN" {
		t.Error("Class.String")
	}
	if RCodeNameError.String() != "NXDOMAIN" {
		t.Error("RCode.String")
	}
}

func TestUnpackMutatedMessagesNeverPanic(t *testing.T) {
	// Take a valid packed message and flip bits everywhere: unpack must
	// never panic and must either fail cleanly or produce a decodable
	// message.
	m := &Message{
		Questions: []Question{{Name: "www.example.com", Type: TypeDNSKEY, Class: ClassINET}},
	}
	for _, rd := range allRDataSamples() {
		m.Answers = append(m.Answers, NewRR("www.example.com", 300, rd))
	}
	good := mustPack(t, m)
	for i := 0; i < len(good); i++ {
		for _, bit := range []byte{0x01, 0x80, 0xff} {
			mutated := append([]byte(nil), good...)
			mutated[i] ^= bit
			var got Message
			_ = got.Unpack(mutated) // must not panic
		}
	}
}

// BenchmarkAppendPack packs the responses an authoritative server sends most,
// into a reused buffer.
func BenchmarkAppendPack(b *testing.B) {
	referral := NewQuery(1, "www.example.com", TypeA)
	referral.Response = true
	referral.SetEDNS(ReplyUDPPayload, true)
	referral.Authority = []*RR{
		NewRR("example.com", 86400, &NS{Host: "ns1.operator.example"}),
		NewRR("example.com", 86400, &DS{KeyTag: 7, Algorithm: AlgED25519, DigestType: DigestSHA256, Digest: make([]byte, 32)}),
		NewRR("example.com", 86400, &RRSIG{
			TypeCovered: TypeDS, Algorithm: AlgED25519, Labels: 2, OriginalTTL: 86400,
			SignerName: "com", Signature: make([]byte, 64),
		}),
	}
	for _, tc := range []struct {
		name string
		m    *Message
	}{{"referral", referral}} {
		b.Run(tc.name, func(b *testing.B) {
			buf := make([]byte, 0, 1024)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				var err error
				if buf, err = tc.m.AppendPack(buf[:0]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// MaxPayload is QueryView.MaxPayload's answer from the full parse, which
// the lazy view is held to.
func (m *Message) MaxPayload() int {
	if e := m.EDNS(); e != nil {
		return max(int(e.UDPSize), MaxUDPPayload)
	}
	return MaxUDPPayload
}
