package dnssec

import (
	"context"
	"errors"
	"testing"

	"securepki.org/registrarsec/internal/dnswire"
)

// linkFixture is one zone with a KSK the DS digests and a second key, K2,
// beside it in the DNSKEY RRset.
type linkFixture struct {
	zone    string
	ksk, k2 *KeyPair
	ds      []*dnswire.DS
	keyRRs  []*dnswire.RR
}

func newLinkFixture(t testing.TB) *linkFixture {
	t.Helper()
	f := &linkFixture{
		zone: "example.org",
		ksk:  genKey(t, dnswire.AlgED25519, dnswire.FlagsKSK),
		k2:   genKey(t, dnswire.AlgED25519, dnswire.FlagsZSK),
	}
	ds, err := ComputeDS(f.zone, f.ksk.DNSKEY(), dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	f.ds = []*dnswire.DS{ds}
	f.keyRRs = []*dnswire.RR{f.ksk.RR(f.zone, 3600), f.k2.RR(f.zone, 3600)}
	return f
}

// answers returns the DNSKEY RRset as an answer section carries it, with one
// RRSIG per signer.
func (f *linkFixture) answers(t testing.TB, opts SignOptions, signers ...*KeyPair) []*dnswire.RR {
	t.Helper()
	section := append([]*dnswire.RR(nil), f.keyRRs...)
	for _, k := range signers {
		sig, err := SignRRSet(f.keyRRs, k, f.zone, opts)
		if err != nil {
			t.Fatal(err)
		}
		section = append(section, sig)
	}
	return section
}

func (f *linkFixture) keySet(t testing.TB, opts SignOptions, signers ...*KeyPair) *RRSet {
	return ExtractRRSet(f.answers(t, opts, signers...), f.zone, dnswire.TypeDNSKEY)
}

// TestLinkExplainsEachSignature: besides the verdict, Link says why each
// RRSIG over the DNSKEY RRset failed to establish it.
func TestLinkExplainsEachSignature(t *testing.T) {
	f := newLinkFixture(t)
	expired := SignOptions{Inception: testNow.AddDate(0, -3, 0), Expiration: testNow.AddDate(0, -1, 0)}
	future := SignOptions{Inception: testNow.AddDate(0, 1, 0), Expiration: testNow.AddDate(0, 3, 0)}

	cases := []struct {
		name   string
		ds     []*dnswire.DS
		set    *RRSet
		valid  bool
		faults []SigFault
	}{
		{"signed by the DS's key", f.ds, f.keySet(t, testWindow, f.ksk), true, nil},
		{"signed by both keys", f.ds, f.keySet(t, testWindow, f.k2, f.ksk), true, []SigFault{SigUntrustedKey}},
		{"wrong signer", f.ds, f.keySet(t, testWindow, f.k2), false, []SigFault{SigUntrustedKey}},
		{"expired", f.ds, f.keySet(t, expired, f.ksk), false, []SigFault{SigExpired}},
		{"not yet valid", f.ds, f.keySet(t, future, f.ksk), false, []SigFault{SigNotYetValid}},
		{"unsigned", f.ds, f.keySet(t, testWindow), false, nil},
		// Without a DS nothing is valid, and the signatures are held to the
		// set's own keys: K2's is fine, an expired one is still expired.
		{"partial", nil, f.keySet(t, testWindow, f.k2), false, nil},
		{"partial and expired", nil, f.keySet(t, expired, f.ksk), false, []SigFault{SigExpired}},
	}
	for _, tc := range cases {
		link := Link(f.zone, tc.ds, tc.set, testNow)
		if link.KeysValid != tc.valid || link.HasDS != (tc.ds != nil) || !link.HasDNSKEY || link.DSMatches != (tc.ds != nil) {
			t.Errorf("%s: link %+v, want KeysValid=%v", tc.name, link, tc.valid)
		}
		var got []SigFault
		for _, sf := range link.SigFailures {
			got = append(got, sf.Fault)
			if sf.Err == nil || sf.Sig == nil {
				t.Errorf("%s: failure without signature or error: %+v", tc.name, sf)
			}
		}
		if len(got) != len(tc.faults) || (len(got) == 1 && got[0] != tc.faults[0]) {
			t.Errorf("%s: faults %v, want %v", tc.name, got, tc.faults)
		}
	}

	// A corrupted signature by the trusted key is the one remaining fault.
	set := f.keySet(t, testWindow, f.ksk)
	set.Sigs[0].Signature[0] ^= 0xff
	link := Link(f.zone, f.ds, set, testNow)
	if link.KeysValid || len(link.SigFailures) != 1 || link.SigFailures[0].Fault != SigInvalid ||
		!errors.Is(link.SigFailures[0].Err, ErrSignatureInvalid) {
		t.Errorf("corrupted signature: %+v", link)
	}
}

// TestValidateBogusWrongSigner is the bypass the lax link checks left open:
// DS digests the KSK, but the DNSKEY RRset and the data are signed by K2
// alone. Every signature verifies under a key in the set; no key the parent
// vouches for has signed the set.
func TestValidateBogusWrongSigner(t *testing.T) {
	w := buildChain(t)
	zone := "example.org"
	k2 := genKey(t, dnswire.AlgED25519, dnswire.FlagsZSK)
	keyRRs := []*dnswire.RR{w.keys[zone].RR(zone, 3600), k2.RR(zone, 3600)}
	keySig, err := SignRRSet(keyRRs, k2, zone, testWindow)
	if err != nil {
		t.Fatal(err)
	}
	w.fetcher.put(zone, keyRRs, keySig)
	a := w.fetcher.sets[rkey("www.example.org", dnswire.TypeA)].RRs
	aSig, err := SignRRSet(a, k2, zone, testWindow)
	if err != nil {
		t.Fatal(err)
	}
	w.fetcher.put("www.example.org", a, aSig)

	res, err := w.validator().Validate(context.Background(), "www.example.org", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	last := res.Chain[len(res.Chain)-1]
	if res.Status != Bogus || !last.DSMatches || last.KeysValid {
		t.Errorf("Status = %v (%s), last link %+v; want bogus with DSMatches and without KeysValid",
			res.Status, res.Reason, last)
	}
}

// scriptedNet answers DNSKEY queries per host from a script: an error, or a
// response with the given rcode and answer section.
type scriptedNet struct {
	hosts map[string]scriptedHost
	asked []string
}

type scriptedHost struct {
	err     error
	rcode   dnswire.RCode
	answers []*dnswire.RR
}

func (n *scriptedNet) Exchange(_ context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	n.asked = append(n.asked, server)
	h := n.hosts[server]
	if h.err != nil {
		return nil, h.err
	}
	resp := q.Reply()
	resp.RCode = h.rcode
	resp.Answers = h.answers
	return resp, nil
}

// TestFetchKeysFailover pins the three rules the sweep's DNSKEY step has
// always had: a lame or dark first host fails over, a host that answers
// without keys does not end the search while a sibling is unasked, and a
// zone none of whose hosts answered is an error — never "no keys".
func TestFetchKeysFailover(t *testing.T) {
	f := newLinkFixture(t)
	served := scriptedHost{answers: f.answers(t, testWindow, f.ksk)}
	dark := scriptedHost{err: context.DeadlineExceeded}
	lame := scriptedHost{rcode: dnswire.RCodeServerFailure}
	keyless := scriptedHost{}
	ctx := context.Background()

	cases := []struct {
		name     string
		a, b     scriptedHost
		wantKeys int
		wantErr  bool
	}{
		{"dark first host", dark, served, 2, false},
		{"lame first host", lame, served, 2, false},
		{"keyless first host, keys on the sibling", keyless, served, 2, false},
		{"every host keyless", keyless, keyless, 0, false},
		{"one dark, one keyless", dark, keyless, 0, false},
		{"all hosts dark", dark, dark, 0, true},
		{"all hosts lame", lame, lame, 0, true},
	}
	for _, tc := range cases {
		net := &scriptedNet{hosts: map[string]scriptedHost{"a": tc.a, "b": tc.b}}
		set, err := FetchKeys(ctx, net, 7, f.zone, []string{"a", "b"})
		if (err != nil) != tc.wantErr {
			t.Errorf("%s: err = %v, want error %v", tc.name, err, tc.wantErr)
			continue
		}
		if err != nil {
			if tc.a.err != nil && !errors.Is(err, tc.a.err) {
				t.Errorf("%s: error %v does not wrap the host's", tc.name, err)
			}
			continue
		}
		if len(set.Keys()) != tc.wantKeys {
			t.Errorf("%s: %d keys, want %d", tc.name, len(set.Keys()), tc.wantKeys)
		}
		if len(net.asked) != 2 || net.asked[0] != "a" {
			t.Errorf("%s: asked %v, want a then b", tc.name, net.asked)
		}
	}

	// The first host that serves keys ends the search, in the caller's order.
	net := &scriptedNet{hosts: map[string]scriptedHost{"a": served, "b": served}}
	if _, err := FetchKeys(ctx, net, 7, f.zone, []string{"b", "a"}); err != nil || len(net.asked) != 1 || net.asked[0] != "b" {
		t.Errorf("asked %v (err %v), want b alone", net.asked, err)
	}
}

// FuzzLink: whatever a nameserver answers, judging it against a DS never
// panics, and the verdict's fields keep their implication order.
func FuzzLink(f *testing.F) {
	fx := newLinkFixture(f)
	for _, signers := range [][]*KeyPair{{fx.ksk}, {fx.k2}, {}} {
		resp := dnswire.NewQuery(1, fx.zone, dnswire.TypeDNSKEY).Reply()
		resp.Answers = fx.answers(f, testWindow, signers...)
		wire, err := resp.Pack()
		if err != nil {
			f.Fatal(err)
		}
		f.Add(wire)
	}
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		var m dnswire.Message
		if err := m.Unpack(data); err != nil {
			return
		}
		set := ExtractRRSet(m.Answers, fx.zone, dnswire.TypeDNSKEY)
		for _, ds := range [][]*dnswire.DS{fx.ds, nil} {
			link := Link(fx.zone, ds, set, testNow)
			if link.KeysValid && !link.DSMatches || link.DSMatches && !link.HasDNSKEY {
				t.Fatalf("verdict out of order: %+v", link)
			}
			if link.HasDNSKEY != (len(set.Keys()) > 0) || link.HasDS != (ds != nil) {
				t.Fatalf("presence flags disagree with the inputs: %+v", link)
			}
		}
	})
}
