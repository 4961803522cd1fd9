package dnswire_test

import (
	"bytes"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
)

// messageSeeds are packed responses of each answer shape a sweep meets, all
// to EDNS queries with DO set, so each carries an OPT record: a referral with
// its DS RRset and the RRSIG over it, an NSEC3 NXDOMAIN, and a DNSKEY
// answer; and the query that asked for the referral.
func messageSeeds(tb testing.TB) [][]byte {
	h, err := dnstest.NewHierarchy(time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC), "com")
	if err != nil {
		tb.Fatal(err)
	}
	const nsHost = "ns1.operator.net"
	child, signer, err := h.AddDomain("example.com", nsHost, dnstest.Full)
	if err != nil {
		tb.Fatal(err)
	}
	signer.NSEC3 = &dnswire.NSEC3PARAM{HashAlg: 1, Iterations: 0, Salt: []byte{0xab, 0xcd}}
	if err := signer.Sign(child); err != nil {
		tb.Fatal(err)
	}
	var seeds [][]byte
	pack := func(m *dnswire.Message) {
		wire, err := m.Pack()
		if err != nil {
			tb.Fatal(err)
		}
		seeds = append(seeds, wire)
	}
	ask := func(srv *dnsserver.Authoritative, name string, t dnswire.Type, want func(*dnswire.Message) bool) {
		q := dnswire.NewQuery(0x7e57, name, t)
		q.SetEDNS(1232, true)
		resp := srv.ServeDNS(q)
		if !want(resp) || resp.EDNS() == nil {
			tb.Fatalf("%s/%v: not the answer shape wanted:\n%s", name, t, resp)
		}
		pack(resp)
	}
	has := func(rrs []*dnswire.RR, t dnswire.Type) bool {
		for _, rr := range rrs {
			if rr.Type == t {
				return true
			}
		}
		return false
	}
	ask(h.TLDServer("com"), "www.example.com", dnswire.TypeA, func(m *dnswire.Message) bool {
		return len(m.Answers) == 0 && has(m.Authority, dnswire.TypeNS) && has(m.Authority, dnswire.TypeDS) && has(m.Authority, dnswire.TypeRRSIG)
	})
	ask(h.OperatorServer(nsHost), "nope.example.com", dnswire.TypeA, func(m *dnswire.Message) bool {
		return m.RCode == dnswire.RCodeNameError && has(m.Authority, dnswire.TypeNSEC3)
	})
	ask(h.OperatorServer(nsHost), "example.com", dnswire.TypeDNSKEY, func(m *dnswire.Message) bool {
		return has(m.Answers, dnswire.TypeDNSKEY) && has(m.Answers, dnswire.TypeRRSIG)
	})
	q := dnswire.NewQuery(0x7e57, "www.example.com", dnswire.TypeA)
	q.SetEDNS(1232, true)
	pack(q)
	return seeds
}

// FuzzMessage holds the wire codec to its round trip: whatever Unpack
// accepts, Pack packs; the packed bytes unpack again; and packing what they
// unpack to gives the same bytes.
func FuzzMessage(f *testing.F) {
	for _, seed := range messageSeeds(f) {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, pkt []byte) {
		var m dnswire.Message
		if m.Unpack(pkt) != nil {
			return
		}
		packed, err := m.Pack()
		if err != nil {
			t.Fatalf("Unpack accepts %x, Pack refuses what it made:\n%s\n%v", pkt, &m, err)
		}
		var again dnswire.Message
		if err := again.Unpack(packed); err != nil {
			t.Fatalf("Pack made %x of\n%s\nwhich Unpack refuses: %v", packed, &m, err)
		}
		repacked, err := again.Pack()
		if err != nil || !bytes.Equal(repacked, packed) {
			t.Fatalf("packed %x, unpacked and packed again %x (%v)", packed, repacked, err)
		}
	})
}
