package dnswire

import (
	"bytes"
	"encoding/binary"
	"strings"
	"testing"
)

func packQuery(t *testing.T, m *Message) []byte {
	t.Helper()
	wire, err := m.Pack()
	if err != nil {
		t.Fatal(err)
	}
	return wire
}

// parseBoth runs the lazy and full parsers and, when the lazy parse
// succeeds, checks the agreement contract: full parse must also succeed and
// produce the same (qname, qtype, class, DO, payload) view.
func parseBoth(t *testing.T, pkt []byte) (QueryView, bool) {
	t.Helper()
	v, _, err := ParseQueryView(pkt, nil)
	if err != nil {
		return v, false
	}
	var m Message
	if err := m.Unpack(pkt); err != nil {
		t.Fatalf("lazy parse accepted what Unpack rejects: %v", err)
	}
	if len(m.Questions) != 1 {
		t.Fatalf("full parse question count %d", len(m.Questions))
	}
	q := m.Questions[0]
	if got, want := string(v.Name), CanonicalName(q.Name); got != want {
		t.Errorf("qname: lazy %q full %q", got, want)
	}
	if v.Type != q.Type || v.Class != q.Class {
		t.Errorf("type/class: lazy %v/%v full %v/%v", v.Type, v.Class, q.Type, q.Class)
	}
	if v.ID != m.ID || v.RecursionDesired != m.RecursionDesired {
		t.Errorf("header: lazy id=%d rd=%v full id=%d rd=%v", v.ID, v.RecursionDesired, m.ID, m.RecursionDesired)
	}
	e := m.EDNS()
	if v.HasEDNS != (e != nil) {
		t.Errorf("EDNS presence: lazy %v full %v", v.HasEDNS, e != nil)
	}
	if e != nil && v.DNSSECOK != e.DNSSECOK {
		t.Errorf("DO: lazy %v full %v", v.DNSSECOK, e.DNSSECOK)
	}
	if v.MaxPayload() != m.MaxPayload() {
		t.Errorf("MaxPayload: lazy %d full %d", v.MaxPayload(), m.MaxPayload())
	}
	return v, true
}

func TestParseQueryViewPlain(t *testing.T) {
	q := NewQuery(0x1234, "WWW.Example.COM", TypeA)
	v, ok := parseBoth(t, packQuery(t, q))
	if !ok {
		t.Fatal("plain query rejected by lazy parse")
	}
	if string(v.Name) != "www.example.com" {
		t.Errorf("qname not canonicalized: %q", v.Name)
	}
	if v.HasEDNS || v.DNSSECOK {
		t.Error("phantom EDNS")
	}
	if v.MaxPayload() != MaxUDPPayload {
		t.Errorf("MaxPayload %d without EDNS", v.MaxPayload())
	}
}

func TestParseQueryViewEDNS(t *testing.T) {
	for _, do := range []bool{false, true} {
		q := NewQuery(7, "example.org", TypeDS)
		q.RecursionDesired = true
		q.SetEDNS(1232, do)
		v, ok := parseBoth(t, packQuery(t, q))
		if !ok {
			t.Fatalf("EDNS query (do=%v) rejected by lazy parse", do)
		}
		if !v.HasEDNS || v.DNSSECOK != do || v.UDPSize != 1232 {
			t.Errorf("EDNS view: %+v", v)
		}
		if !v.RecursionDesired {
			t.Error("RD lost")
		}
		if v.MaxPayload() != 1232 {
			t.Errorf("MaxPayload %d", v.MaxPayload())
		}
	}
}

// TestPayloadBelow512IsFloored: an OPT advertising less than 512 octets
// means 512 (RFC 6891 section 6.2.3), to the lazy and the full parse alike.
func TestPayloadBelow512IsFloored(t *testing.T) {
	for _, size := range []uint16{0, 100, 511, 512, 513} {
		q := NewQuery(9, "example.org", TypeA)
		q.SetEDNS(512, false)
		pkt := packQuery(t, q)
		binary.BigEndian.PutUint16(pkt[len(pkt)-8:], size) // the OPT's class: SetEDNS will not write one this small
		v, ok := parseBoth(t, pkt)
		if !ok {
			t.Fatalf("size %d: rejected by lazy parse", size)
		}
		if v.UDPSize != size {
			t.Fatalf("size %d: the patch missed the OPT class (view says %d)", size, v.UDPSize)
		}
		if want := max(int(size), 512); v.MaxPayload() != want {
			t.Errorf("size %d: MaxPayload %d, want %d", size, v.MaxPayload(), want)
		}
	}
}

func TestParseQueryViewRootName(t *testing.T) {
	q := NewQuery(1, "", TypeNS)
	v, ok := parseBoth(t, packQuery(t, q))
	if !ok {
		t.Fatal("root query rejected")
	}
	if len(v.Name) != 0 {
		t.Errorf("root qname: %q", v.Name)
	}
}

func TestParseQueryViewScratchReuse(t *testing.T) {
	buf := make([]byte, 0, 8) // deliberately small: must grow and be returned
	q1 := packQuery(t, NewQuery(1, "a-rather-long-name.example.com", TypeA))
	v1, buf, err := ParseQueryView(q1, buf)
	if err != nil {
		t.Fatal(err)
	}
	name1 := string(v1.Name)
	q2 := packQuery(t, NewQuery(2, "other.net", TypeNS))
	v2, _, err := ParseQueryView(q2, buf)
	if err != nil {
		t.Fatal(err)
	}
	if string(v2.Name) != "other.net" {
		t.Errorf("second parse: %q", v2.Name)
	}
	if name1 != "a-rather-long-name.example.com" {
		t.Errorf("first name corrupted: %q", name1)
	}
}

// TestParseQueryViewRejections exercises every off-fast-path shape; each
// must return an error (full-parse fallback), never a wrong view.
func TestParseQueryViewRejections(t *testing.T) {
	base := func() []byte {
		q := NewQuery(9, "www.example.com", TypeA)
		q.SetEDNS(4096, true)
		return packQuery(t, q)
	}
	// Offsets in the packed base query: 12-byte header, 17-byte qname,
	// 4-byte type/class, then the OPT RR (root owner at 33, type at 34).
	cases := []struct {
		name string
		pkt  func() []byte
	}{
		{"qr set", func() []byte { p := base(); p[2] |= 0x80; return p }},
		{"bad opcode", func() []byte { p := base(); p[2] |= 0x78; return p }},
		{"qdcount 0", func() []byte { p := base(); p[5] = 0; return p }},
		{"qdcount 2", func() []byte { p := base(); p[5] = 2; return p }},
		{"ancount set", func() []byte { p := base(); p[7] = 1; return p }},
		{"nscount set", func() []byte { p := base(); p[9] = 1; return p }},
		{"arcount 2", func() []byte { p := base(); p[11] = 2; return p }},
		{"trailing octets", func() []byte { return append(base(), 0) }},
		{"truncated header", func() []byte { return base()[:8] }},
		{"truncated question", func() []byte { p := packQuery(t, NewQuery(9, "example.com", TypeA)); return p[:len(p)-1] }},
		{"non-inet class", func() []byte {
			p := packQuery(t, NewQuery(9, "www.example.com", TypeA))
			p[len(p)-1] = 3 // CHAOS
			return p
		}},
		{"additional not OPT", func() []byte { p := base(); p[35] = byte(TypeA); return p }},
		{"opt rdata overruns", func() []byte { p := base(); p[len(p)-1] = 200; return p }},
		{"self compression pointer", func() []byte {
			return []byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1}
		}},
		{"forward compression pointer", func() []byte {
			return []byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 16, 0, 1, 0, 1}
		}},
		{"non-ascii label", func() []byte {
			return []byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 'a', 0x80, 0, 0, 1, 0, 1}
		}},
		{"dot inside label", func() []byte {
			return []byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 2, 'a', '.', 0, 0, 1, 0, 1}
		}},
		{"reserved label bits", func() []byte {
			return []byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0x40, 0, 0, 1, 0, 1}
		}},
		{"name too long", func() []byte {
			var name bytes.Buffer
			for i := 0; i < 5; i++ {
				name.WriteString(strings.Repeat("a", 63) + ".")
			}
			p := []byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}
			for _, label := range strings.Split(strings.TrimSuffix(name.String(), "."), ".") {
				p = append(p, byte(len(label)))
				p = append(p, label...)
			}
			p = append(p, 0, 0, 1, 0, 1)
			return p
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := ParseQueryView(tc.pkt(), nil); err == nil {
				t.Error("accepted")
			}
		})
	}
}

func BenchmarkParseQueryView(b *testing.B) {
	q := NewQuery(9, "www.example.com", TypeA)
	q.SetEDNS(4096, true)
	pkt, err := q.Pack()
	if err != nil {
		b.Fatal(err)
	}
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		_, buf, err = ParseQueryView(pkt, buf)
		if err != nil {
			b.Fatal(err)
		}
	}
}
