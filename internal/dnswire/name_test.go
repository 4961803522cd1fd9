package dnswire

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

func TestCanonicalName(t *testing.T) {
	cases := []struct{ in, want string }{
		{"Example.COM.", "example.com"},
		{"example.com", "example.com"},
		{".", ""},
		{"", ""},
		{"WWW.Example.Org", "www.example.org"},
	}
	for _, c := range cases {
		if got := CanonicalName(c.in); got != c.want {
			t.Errorf("CanonicalName(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCheckName(t *testing.T) {
	long := strings.Repeat("a", 64)
	if err := CheckName(long); err == nil {
		t.Error("expected error for 64-octet label")
	}
	if err := CheckName(strings.Repeat("a", 63)); err != nil {
		t.Errorf("63-octet label should be valid: %v", err)
	}
	if err := CheckName("a..b"); err == nil {
		t.Error("expected error for empty label")
	}
	// 255-octet limit: four 63-octet labels = 4*64+1 = 257 > 255.
	four := strings.Join([]string{
		strings.Repeat("a", 63), strings.Repeat("b", 63),
		strings.Repeat("c", 63), strings.Repeat("d", 63),
	}, ".")
	if err := CheckName(four); err == nil {
		t.Error("expected error for name over 255 octets")
	}
	if err := CheckName(""); err != nil {
		t.Errorf("root must be valid: %v", err)
	}
}

func TestParentAndLabels(t *testing.T) {
	if p, ok := Parent("www.example.com"); !ok || p != "example.com" {
		t.Errorf("Parent = %q, %v", p, ok)
	}
	if p, ok := Parent("com"); !ok || p != "" {
		t.Errorf("Parent(com) = %q, %v", p, ok)
	}
	if _, ok := Parent(""); ok {
		t.Error("root must have no parent")
	}
	if n := CountLabels("a.b.c"); n != 3 {
		t.Errorf("CountLabels = %d", n)
	}
	if n := CountLabels(""); n != 0 {
		t.Errorf("CountLabels(root) = %d", n)
	}
}

func TestIsSubdomain(t *testing.T) {
	cases := []struct {
		child, parent string
		want          bool
	}{
		{"www.example.com", "example.com", true},
		{"example.com", "example.com", true},
		{"example.com", "", true},
		{"badexample.com", "example.com", false},
		{"com", "example.com", false},
		{"", "", true},
		{"", "com", false},
		{"com", "com", true},
		{"xcom", "com", false},
		{".com", "com", true},
		{"a.b.com", "b.com", true},
		{"a.xb.com", "b.com", false},
		{"example.com", "com", true},
	}
	for _, c := range cases {
		if got := IsSubdomain(c.child, c.parent); got != c.want {
			t.Errorf("IsSubdomain(%q, %q) = %v, want %v", c.child, c.parent, got, c.want)
		}
	}
	// It runs once per ancestor of every delegation lookup: no allocation.
	if n := testing.AllocsPerRun(100, func() {
		for _, c := range cases {
			IsSubdomain(c.child, c.parent)
		}
	}); n != 0 {
		t.Errorf("IsSubdomain allocates %v times a run, want 0", n)
	}
}

func TestSecondLevel(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ns01.domaincontrol.com", "domaincontrol.com"},
		{"a.b.c.ovh.net", "ovh.net"},
		{"ovh.net", "ovh.net"},
		{"com", "com"},
		{"", ""},
	}
	for _, c := range cases {
		if got := SecondLevel(c.in); got != c.want {
			t.Errorf("SecondLevel(%q) = %q, want %q", c.in, got, c.want)
		}
	}
}

func TestCompareCanonical(t *testing.T) {
	// Ordering example straight from RFC 4034 section 6.1.
	sorted := []string{
		"example",
		"a.example",
		"yljkjljk.a.example",
		"z.a.example",
		"zabc.a.example",
		"z.example",
	}
	for i := 0; i < len(sorted); i++ {
		for j := 0; j < len(sorted); j++ {
			got := CompareCanonical(sorted[i], sorted[j])
			want := 0
			if i < j {
				want = -1
			} else if i > j {
				want = 1
			}
			if got != want {
				t.Errorf("CompareCanonical(%q, %q) = %d, want %d", sorted[i], sorted[j], got, want)
			}
		}
	}
}

// randomName produces a random valid canonical name for property tests.
func randomName(r *rand.Rand) string {
	nLabels := r.Intn(4)
	labels := make([]string, nLabels)
	for i := range labels {
		n := 1 + r.Intn(10)
		b := make([]byte, n)
		for j := range b {
			b[j] = byte('a' + r.Intn(26))
		}
		labels[i] = string(b)
	}
	return strings.Join(labels, ".")
}

func TestNameRoundTripProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		name := randomName(r)
		buf, err := appendName(nil, name, nil)
		if err != nil {
			return false
		}
		got, off, err := unpackName(buf, 0)
		return err == nil && got == name && off == len(buf)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestNameCompressionRoundTrip(t *testing.T) {
	cmp := new(compressor)
	var buf []byte
	var err error
	names := []string{"example.com", "www.example.com", "example.com", "mail.example.com"}
	var offs []int
	for _, n := range names {
		offs = append(offs, len(buf))
		if buf, err = appendName(buf, n, cmp); err != nil {
			t.Fatal(err)
		}
	}
	// The second occurrence of example.com must compress to a 2-octet pointer.
	if offs[2]+2 != offs[3] {
		t.Errorf("repeated name not compressed: offsets %v", offs)
	}
	for i, n := range names {
		got, _, err := unpackName(buf, offs[i])
		if err != nil {
			t.Fatalf("unpack %d: %v", i, err)
		}
		if got != n {
			t.Errorf("name %d = %q, want %q", i, got, n)
		}
	}
}

func TestUnpackNameHostile(t *testing.T) {
	// Self-referencing pointer must be rejected, not loop.
	if _, _, err := unpackName([]byte{0xc0, 0x00}, 0); err == nil {
		t.Error("self-pointer accepted")
	}
	// Forward pointer.
	if _, _, err := unpackName([]byte{0xc0, 0x04, 0, 0, 0}, 0); err == nil {
		t.Error("forward pointer accepted")
	}
	// Truncated label.
	if _, _, err := unpackName([]byte{5, 'a', 'b'}, 0); err == nil {
		t.Error("truncated label accepted")
	}
	// Truncated pointer.
	if _, _, err := unpackName([]byte{0xc0}, 0); err == nil {
		t.Error("truncated pointer accepted")
	}
	// Unsupported label type.
	if _, _, err := unpackName([]byte{0x80, 0x00}, 0); err == nil {
		t.Error("label type 0x80 accepted")
	}
	// A pointer chain that expands a name beyond 255 octets must be caught.
	var msg []byte
	label := append([]byte{63}, []byte(strings.Repeat("x", 63))...)
	for i := 0; i < 3; i++ {
		msg = append(msg, label...)
	}
	msg = append(msg, label...)
	msg = append(msg, 0xc0, 0x00) // points back to the start: 5 x 64 octets total
	if _, _, err := unpackName(msg, 64*3); err == nil {
		t.Error("over-long expanded name accepted")
	}
}

func TestSplitLabels(t *testing.T) {
	if got := SplitLabels(""); got != nil {
		t.Errorf("SplitLabels(root) = %v", got)
	}
	if got := SplitLabels("a.b"); !reflect.DeepEqual(got, []string{"a", "b"}) {
		t.Errorf("SplitLabels = %v", got)
	}
}

// TestCompareCanonicalMatchesSplit holds the allocation-free comparison to
// the label-splitting one it replaced, on random names and on malformed ones
// (empty labels), and to allocating nothing.
func TestCompareCanonicalMatchesSplit(t *testing.T) {
	bySplit := func(a, b string) int {
		la, lb := SplitLabels(a), SplitLabels(b)
		for i := 1; ; i++ {
			switch {
			case i > len(la) && i > len(lb):
				return 0
			case i > len(la):
				return -1
			case i > len(lb):
				return 1
			}
			if c := strings.Compare(la[len(la)-i], lb[len(lb)-i]); c != 0 {
				return c
			}
		}
	}
	r := rand.New(rand.NewSource(9))
	names := []string{"", ".", ".a", "a.", "a..b", "a.b", "b", "ab"}
	for i := 0; i < 200; i++ {
		names = append(names, randomName(r))
	}
	for _, a := range names {
		for _, b := range names {
			if got, want := CompareCanonical(a, b), bySplit(a, b); got != want {
				t.Fatalf("CompareCanonical(%q, %q) = %d, the split comparison says %d", a, b, got, want)
			}
		}
	}
	if n := testing.AllocsPerRun(100, func() { CompareCanonical("www.example.com", "mail.example.com") }); n != 0 {
		t.Errorf("CompareCanonical allocates %.0f times", n)
	}
}

// TestCompressorMatchesMap packs name sequences — shorter and longer than the
// compressor's fixed array — with the compressor and with the map of suffix
// offsets it replaced: same bytes, so same first-seen offsets.
func TestCompressorMatchesMap(t *testing.T) {
	byMap := func(buf []byte, name string, offsets map[string]int) []byte {
		for rest := name; rest != ""; {
			if off, ok := offsets[rest]; ok {
				return append(buf, 0xc0|byte(off>>8), byte(off))
			}
			if len(buf) < 0x3fff {
				offsets[rest] = len(buf)
			}
			label, tail, _ := strings.Cut(rest, ".")
			buf = append(append(buf, byte(len(label))), label...)
			rest = tail
		}
		return append(buf, 0)
	}
	r := rand.New(rand.NewSource(5))
	for _, count := range []int{1, 3, 8, 9, 40, 400} {
		var cmp compressor
		offsets := make(map[string]int)
		got, want := make([]byte, 12), make([]byte, 12)
		var names []string
		for i := 0; i < count; i++ {
			name := randomName(r)
			if i%3 == 2 {
				if parent := names[r.Intn(len(names))]; parent != "" {
					name = "x." + parent
				}
			}
			names = append(names, name)
			var err error
			if got, err = appendName(got, name, &cmp); err != nil {
				t.Fatal(err)
			}
			want = byMap(want, name, offsets)
		}
		if string(got) != string(want) {
			t.Errorf("%d names: the compressor and the map disagree:\n%x\n%x", count, got, want)
		}
		if count > len(cmp.seen) && len(cmp.spills) == 0 {
			t.Errorf("%d names never spilled", count)
		}
	}
}

// TestUnpackNameKeepsLabelBytes: a name folds ASCII letters only, so a
// label of other octets unpacks to the same octets and packs back to them;
// a label holding a '.' cannot be written as dotted text and is refused.
func TestUnpackNameKeepsLabelBytes(t *testing.T) {
	wire := []byte{3, 'A', 0xff, 0xc4, 3, 'c', 'O', 'm', 0}
	name, end, err := unpackName(wire, 0)
	if err != nil || name != "a\xff\xc4.com" || end != len(wire) {
		t.Fatalf("unpackName = %q, %d, %v", name, end, err)
	}
	packed, err := appendName(nil, name, nil)
	if err != nil || string(packed) != "\x03a\xff\xc4\x03com\x00" {
		t.Fatalf("appendName(%q) = %q, %v", name, packed, err)
	}
	if _, _, err := unpackName([]byte{3, 'a', '.', 'b', 0}, 0); err != ErrDotInLabel {
		t.Fatalf("a label with a dot: %v, want ErrDotInLabel", err)
	}
}
