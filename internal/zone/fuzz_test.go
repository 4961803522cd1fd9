package zone

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/dnswire"
)

// FuzzZoneFile holds the master-file parser to the writer: whatever Parse
// accepts, WriteTo renders as a file that parses back to the same RRsets
// under the same origin.
func FuzzZoneFile(f *testing.F) {
	for _, seed := range []string{
		sampleZoneFile,
		"t IN TXT \"a;b\" ; real comment\n",
		"g IN TYPE999 \\# 3 010203\n",
		"x 300 IN RRSIG A 8 2 300 1483142400 20161130000000 60485 example.com. AAAA\n",
		"$ORIGIN example.com.\n@ 300 IN NSEC3PARAM 1 0 5 0102\n@ 300 IN NSEC3PARAM 1 0 0 -\n" +
			"0p9mhaveqvm6t7vbl5lop2u3t2rp3tom 300 IN NSEC3 1 1 5 0102 2t7b4g4vsa5smi47k61mv5bv1a22bojr A RRSIG\n",
		"@ IN DS 60485 8 2 2bb183af5f22588179a53b0a98631fad1a292118\n@ IN DNSKEY 257 3 8 AwEAAQ==\n",
		"@ IN NSEC www.example.com. A NS SOA RRSIG NSEC\n",
		"$TTL 1h30m\n@ IN SOA a b 1 2 3 4 5\n",
		"@ IN SOA a b ( 1 2 3 4 5\n",
		"@ IN TXT \"oops\n",
	} {
		f.Add(seed, "example.com")
	}
	f.Add("@ IN DS 0 0 0 00\n", "aaaaa 00")
	f.Add(" NSEC3 0 0 0 00 0", "0")
	f.Add("t IN TXT \"C:\\dir\" \"tab\there\"\n", "example.com")
	f.Fuzz(func(t *testing.T, text, origin string) {
		z, err := Parse(strings.NewReader(text), origin)
		if err != nil {
			return
		}
		var buf bytes.Buffer
		if _, err := z.WriteTo(&buf); err != nil {
			t.Fatalf("WriteTo: %v", err)
		}
		again, err := Parse(bytes.NewReader(buf.Bytes()), "")
		if err != nil {
			t.Fatalf("the written zone does not parse: %v\n%s", err, buf.Bytes())
		}
		if again.Origin != z.Origin {
			t.Fatalf("origin %q reads back as %q", z.Origin, again.Origin)
		}
		if got, want := rrsetsOf(again), rrsetsOf(z); !reflect.DeepEqual(got, want) {
			t.Fatalf("RRsets changed through WriteTo:\nwant %v\ngot  %v\nfile:\n%s", want, got, buf.Bytes())
		}
	})
}

// rrsetsOf lists a zone's records by owner and type.
func rrsetsOf(z *Zone) map[rrKey][]*dnswire.RR {
	out := map[rrKey][]*dnswire.RR{}
	z.RRSets(func(name string, t dnswire.Type, rrs []*dnswire.RR) {
		out[rrKey{name, t}] = rrs
	})
	return out
}
