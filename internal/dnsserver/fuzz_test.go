package dnsserver_test

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
)

// fuzzHandler builds one cache-carrying host per process for the fuzz target.
var fuzzHandler = sync.OnceValue(func() *dnsserver.Authoritative {
	h, err := dnstest.NewHierarchy(time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC), "com")
	if err != nil {
		panic(err)
	}
	if _, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full); err != nil {
		panic(err)
	}
	s := dnsserver.NewSharded(dnsserver.ShardedConfig{})
	s.AddZone(h.TLDZone("com"))
	return s
})

// fuzzSeeds is FuzzServeDNS's seed corpus, which TestTransportIndependence
// replays over the real transports too.
func fuzzSeeds(tb testing.TB) [][]byte {
	var seeds [][]byte
	seed := func(name string, t dnswire.Type, edns int, rd bool) {
		q := dnswire.NewQuery(0x7e57, name, t)
		q.RecursionDesired = rd
		switch edns {
		case 1:
			q.SetEDNS(1232, false)
		case 2:
			q.SetEDNS(512, true)
		}
		wire := mustPack(tb, q)
		seeds = append(seeds, wire)
	}
	seed("example.com", dnswire.TypeNS, 0, false)
	seed("example.com", dnswire.TypeDS, 2, true)
	seed("www.example.com", dnswire.TypeA, 1, false)
	seed("nonexistent.com", dnswire.TypeA, 2, false)
	seed("com", dnswire.TypeANY, 2, true)
	seed("com", dnswire.TypeSOA, 0, true)
	seed("", dnswire.TypeNS, 0, false)
	return append(seeds,
		[]byte{},
		[]byte{0, 9, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0xc0, 12, 0, 1, 0, 1},
		bytes.Repeat([]byte{0xff}, 64))
}

// FuzzServeDNS feeds raw packets through both wire entry points and pins
// five properties: nothing panics; a lazy-parse success implies a full
// Unpack success with the identical (qname, qtype, class, DO) view (the
// cache-key soundness contract); when the fast path answers from cache it
// returns exactly the bytes the full path renders; the UDP rendering is
// the unlimited (TCP) one wherever that fits the client's payload limit,
// and a TC reply no larger than the limit wherever it does not; and every
// packet answered is answered with the bytes the reference renderer
// (oracle_test.go) packs for it.
func FuzzServeDNS(f *testing.F) {
	for _, pkt := range fuzzSeeds(f) {
		f.Add(pkt)
	}

	f.Fuzz(func(t *testing.T, pkt []byte) {
		v, _, lazyErr := dnswire.ParseQueryView(pkt, nil)
		var m dnswire.Message
		fullErr := m.Unpack(pkt)
		if lazyErr == nil {
			if fullErr != nil {
				t.Fatalf("lazy parse accepted what Unpack rejects: %v", fullErr)
			}
			if len(m.Questions) != 1 {
				t.Fatalf("lazy-accepted packet has %d questions", len(m.Questions))
			}
			q := m.Questions[0]
			if string(v.Name) != dnswire.CanonicalName(q.Name) ||
				v.Type != q.Type || v.Class != q.Class {
				t.Fatalf("lazy view (%q,%v,%v) != full view (%q,%v,%v)",
					v.Name, v.Type, v.Class, q.Name, q.Type, q.Class)
			}
			e := m.EDNS()
			if v.HasEDNS != (e != nil) || (e != nil && v.DNSSECOK != e.DNSSECOK) {
				t.Fatalf("lazy EDNS view diverges: %+v vs %+v", v, e)
			}
			if v.ID != m.ID || v.RecursionDesired != m.RecursionDesired {
				t.Fatalf("lazy header view diverges")
			}
		}

		s := fuzzHandler()
		sc := dnsserver.NewWireScratch()
		full := s.ServeWireFull(nil, pkt, sc, true)
		if full != nil {
			var resp dnswire.Message
			if err := resp.Unpack(full); err != nil {
				t.Fatalf("emitted unparseable response: %v", err)
			}
		}
		whole := s.ServeWireFull(nil, pkt, dnsserver.NewWireScratch(), false)
		if (whole == nil) != (full == nil) {
			t.Fatalf("udp answers %v, tcp answers %v", full != nil, whole != nil)
		}
		if whole != nil {
			if want, err := dnsserver.ReferenceServeDNS(s, &m).Pack(); err != nil || !bytes.Equal(whole, want) {
				t.Fatalf("the response diverges from the reference renderer's (%v):\ngot:  %x\nwant: %x", err, whole, want)
			}
		}
		if full != nil {
			if limit := maxPayload(&m); len(whole) <= limit {
				if !bytes.Equal(full, whole) {
					t.Fatalf("udp and tcp renderings differ within the limit:\nudp: %x\ntcp: %x", full, whole)
				}
			} else if len(full) > limit || full[2]&0x02 == 0 {
				t.Fatalf("%d-byte response under limit %d came back as %x", len(whole), limit, full)
			}
		}
		fast, hit := s.ServeWireFast(nil, pkt, sc)
		if hit {
			if full == nil {
				t.Fatal("fast path answered a packet the full path drops")
			}
			if !bytes.Equal(fast, full) {
				t.Fatalf("cached response diverges from rendered:\nfast: %x\nfull: %x", fast, full)
			}
		}
	})
}

// maxPayload is the UDP response size q's sender accepts (RFC 6891 6.2.3).
func maxPayload(q *dnswire.Message) int {
	if e := q.EDNS(); e != nil {
		return max(int(e.UDPSize), dnswire.MaxUDPPayload)
	}
	return dnswire.MaxUDPPayload
}
