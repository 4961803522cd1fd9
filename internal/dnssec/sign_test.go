package dnssec

import (
	"errors"
	"math/rand"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

var testWindow = SignOptions{
	Inception:  time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC),
	Expiration: time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC),
}

var testNow = time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)

func genKey(t testing.TB, alg dnswire.Algorithm, flags uint16) *KeyPair {
	t.Helper()
	k, err := GenerateKeyPair(alg, flags, nil)
	if err != nil {
		t.Fatalf("GenerateKeyPair(%v): %v", alg, err)
	}
	return k
}

func sampleRRSet() []*dnswire.RR {
	return []*dnswire.RR{
		dnswire.NewRR("www.example.org", 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}),
		dnswire.NewRR("www.example.org", 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.2")}),
	}
}

func TestSignVerifyAllAlgorithms(t *testing.T) {
	for _, alg := range []dnswire.Algorithm{
		dnswire.AlgRSASHA256, dnswire.AlgECDSAP256SHA256, dnswire.AlgED25519,
	} {
		t.Run(alg.String(), func(t *testing.T) {
			key := genKey(t, alg, dnswire.FlagsZSK)
			rrs := sampleRRSet()
			sigRR, err := SignRRSet(rrs, key, "example.org", testWindow)
			if err != nil {
				t.Fatalf("SignRRSet: %v", err)
			}
			sig := sigRR.Data.(*dnswire.RRSIG)
			if sig.Labels != 3 {
				t.Errorf("Labels = %d, want 3", sig.Labels)
			}
			if sig.SignerName != "example.org" {
				t.Errorf("SignerName = %q", sig.SignerName)
			}
			if err := VerifyRRSet(rrs, sig, key.DNSKEY(), testNow); err != nil {
				t.Errorf("VerifyRRSet: %v", err)
			}
		})
	}
}

// signedSample is sampleRRSet signed for example.org over testWindow by a
// fresh Ed25519 zone key.
func signedSample(t *testing.T) (*KeyPair, []*dnswire.RR, *dnswire.RRSIG) {
	t.Helper()
	key := genKey(t, dnswire.AlgED25519, dnswire.FlagsZSK)
	rrs := sampleRRSet()
	sigRR, err := SignRRSet(rrs, key, "example.org", testWindow)
	if err != nil {
		t.Fatal(err)
	}
	return key, rrs, sigRR.Data.(*dnswire.RRSIG)
}

func TestVerifyDetectsTampering(t *testing.T) {
	key, rrs, sig := signedSample(t)

	// Change one record: verification must fail.
	tampered := sampleRRSet()
	tampered[0].Data = &dnswire.A{Addr: netip.MustParseAddr("203.0.113.66")}
	if err := VerifyRRSet(tampered, sig, key.DNSKEY(), testNow); err == nil {
		t.Error("tampered RRset verified")
	}
	// Change the TTL: must still verify, because the canonical form uses
	// OriginalTTL from the RRSIG (resolvers see decremented TTLs).
	aged := sampleRRSet()
	aged[0].TTL, aged[1].TTL = 17, 17
	if err := VerifyRRSet(aged, sig, key.DNSKEY(), testNow); err != nil {
		t.Errorf("TTL-decayed RRset rejected: %v", err)
	}
	// Corrupt the signature bytes.
	bad := *sig
	bad.Signature = append([]byte(nil), sig.Signature...)
	bad.Signature[0] ^= 0xff
	if err := VerifyRRSet(rrs, &bad, key.DNSKEY(), testNow); err == nil {
		t.Error("corrupted signature verified")
	}
}

func TestVerifyOrderIndependence(t *testing.T) {
	key, rrs, sig := signedSample(t)
	reversed := []*dnswire.RR{rrs[1], rrs[0]}
	if err := VerifyRRSet(reversed, sig, key.DNSKEY(), testNow); err != nil {
		t.Errorf("reordered RRset rejected: %v", err)
	}
	// Duplicated records collapse in canonical form (RFC 4034 section 6.3).
	dup := []*dnswire.RR{rrs[0], rrs[1], rrs[0]}
	if err := VerifyRRSet(dup, sig, key.DNSKEY(), testNow); err != nil {
		t.Errorf("duplicated RRset rejected: %v", err)
	}
}

func TestVerifyWindow(t *testing.T) {
	key, rrs, sig := signedSample(t)
	for _, tc := range []struct {
		at   time.Time
		want bool
	}{
		{testWindow.Inception.Add(-time.Hour), false},
		{testWindow.Inception, true},
		{testNow, true},
		{testWindow.Expiration, true},
		{testWindow.Expiration.Add(time.Hour), false},
	} {
		err := VerifyRRSet(rrs, sig, key.DNSKEY(), tc.at)
		if ok := err == nil; ok != tc.want {
			t.Errorf("at %v: valid=%v, want %v (%v)", tc.at, ok, tc.want, err)
		}
	}
}

func TestVerifyRejectsWrongKeyAndMetadata(t *testing.T) {
	key, rrs, sig := signedSample(t)
	other := genKey(t, dnswire.AlgED25519, dnswire.FlagsZSK)
	ecdsaKey := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.FlagsZSK)
	if err := VerifyRRSet(rrs, sig, other.DNSKEY(), testNow); err == nil {
		t.Error("verified with an unrelated key")
	}
	if err := VerifyRRSet(rrs, sig, ecdsaKey.DNSKEY(), testNow); err == nil {
		t.Error("verified with a key of a different algorithm")
	}
	// Revoked/non-zone key must be rejected regardless of signature.
	nonZone := key.DNSKEY()
	nonZone.Flags = 0
	if err := VerifyRRSet(rrs, sig, nonZone, testNow); err == nil {
		t.Error("verified with a non-zone key")
	}
	// Signer outside the owner's ancestry.
	badSigner := *sig
	badSigner.SignerName = "other.test"
	if err := VerifyRRSet(rrs, &badSigner, key.DNSKEY(), testNow); err == nil {
		t.Error("verified with out-of-bailiwick signer")
	}
}

// TestSignRejectsBadInput: everything wrong with a signing request other
// than the key failing is found by PrepareRRSIG, before the key is used, and
// SignRRSet reports the same error.
func TestSignRejectsBadInput(t *testing.T) {
	key := genKey(t, dnswire.AlgED25519, dnswire.FlagsZSK)
	unsupported := *key
	unsupported.Algorithm = 250
	addr := &dnswire.A{Addr: netip.MustParseAddr("192.0.2.1")}
	for _, tc := range []struct {
		name string
		rrs  []*dnswire.RR
		key  *KeyPair
		want error
	}{
		{"empty RRset", nil, key, ErrEmptyRRSet},
		{"mixed RRset", []*dnswire.RR{
			dnswire.NewRR("a.example.org", 300, addr), dnswire.NewRR("b.example.org", 300, addr),
		}, key, ErrMixedRRSet},
		{"owner outside the signer zone", []*dnswire.RR{dnswire.NewRR("www.other.test", 300, addr)}, key, ErrSignerMismatch},
		{"unpackable RRset", []*dnswire.RR{
			dnswire.NewRR("example.org", 300, &dnswire.NS{Host: strings.Repeat("x", 64) + ".example.org"}),
		}, key, dnswire.ErrLabelTooLong},
		{"algorithm that cannot sign", sampleRRSet(), &unsupported, ErrUnsupportedAlgorithm},
	} {
		if _, err := PrepareRRSIG(tc.rrs, tc.key, "example.org", testWindow); !errors.Is(err, tc.want) {
			t.Errorf("PrepareRRSIG, %s: %v, want %v", tc.name, err, tc.want)
		}
		if _, err := SignRRSet(tc.rrs, tc.key, "example.org", testWindow); !errors.Is(err, tc.want) {
			t.Errorf("SignRRSet, %s: %v, want %v", tc.name, err, tc.want)
		}
	}
	// A prepared signature can be produced any number of times.
	p, err := PrepareRRSIG(sampleRRSet(), key, "example.org", testWindow)
	if err != nil || p.Covered() != dnswire.TypeA {
		t.Fatalf("PrepareRRSIG: %v, covers %v", err, p.Covered())
	}
	for i := 0; i < 2; i++ {
		sig, err := p.Sign()
		if err != nil {
			t.Fatal(err)
		}
		if err := VerifyRRSet(sampleRRSet(), sig.Data.(*dnswire.RRSIG), key.DNSKEY(), testNow); err != nil {
			t.Errorf("signature %d of one preparation: %v", i, err)
		}
	}
}

func TestVerifyWithAnyKey(t *testing.T) {
	zsk := genKey(t, dnswire.AlgED25519, dnswire.FlagsZSK)
	ksk := genKey(t, dnswire.AlgED25519, dnswire.FlagsKSK)
	rrs := sampleRRSet()
	sigRR, err := SignRRSet(rrs, zsk, "example.org", testWindow)
	if err != nil {
		t.Fatal(err)
	}
	sig := sigRR.Data.(*dnswire.RRSIG)
	keys := []*dnswire.DNSKEY{ksk.DNSKEY(), zsk.DNSKEY()}
	if err := VerifyWithAnyKey(rrs, sig, keys, testNow); err != nil {
		t.Errorf("VerifyWithAnyKey: %v", err)
	}
	if err := VerifyWithAnyKey(rrs, sig, []*dnswire.DNSKEY{ksk.DNSKEY()}, testNow); err == nil {
		t.Error("verified without the signing key present")
	}
}

func TestSignVerifyProperty(t *testing.T) {
	key := genKey(t, dnswire.AlgED25519, dnswire.FlagsZSK)
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(5)
		rrs := make([]*dnswire.RR, n)
		for i := range rrs {
			addr := netip.AddrFrom4([4]byte{192, 0, 2, byte(r.Intn(256))})
			rrs[i] = dnswire.NewRR("host.example.org", uint32(60+r.Intn(3600)), &dnswire.A{Addr: addr})
		}
		sigRR, err := SignRRSet(rrs, key, "example.org", testWindow)
		if err != nil {
			return false
		}
		sig := sigRR.Data.(*dnswire.RRSIG)
		// Shuffled set must verify.
		r.Shuffle(len(rrs), func(i, j int) { rrs[i], rrs[j] = rrs[j], rrs[i] })
		return VerifyRRSet(rrs, sig, key.DNSKEY(), testNow) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestParsePublicKeyRoundTrip(t *testing.T) {
	for _, alg := range []dnswire.Algorithm{
		dnswire.AlgRSASHA256, dnswire.AlgECDSAP256SHA256, dnswire.AlgED25519,
	} {
		key := genKey(t, alg, dnswire.FlagsKSK)
		if _, err := ParsePublicKey(key.DNSKEY()); err != nil {
			t.Errorf("%v: ParsePublicKey: %v", alg, err)
		}
	}
}

func TestParsePublicKeyRejectsGarbage(t *testing.T) {
	cases := []*dnswire.DNSKEY{
		{Algorithm: dnswire.AlgRSASHA256, PublicKey: []byte{}},
		{Algorithm: dnswire.AlgRSASHA256, PublicKey: []byte{1, 3}}, // exponent but no modulus
		{Algorithm: dnswire.AlgECDSAP256SHA256, PublicKey: make([]byte, 63)},
		{Algorithm: dnswire.AlgECDSAP256SHA256, PublicKey: make([]byte, 64)}, // (0,0) not on curve
		{Algorithm: dnswire.AlgED25519, PublicKey: make([]byte, 31)},
		{Algorithm: dnswire.Algorithm(99), PublicKey: make([]byte, 32)},
	}
	for i, dk := range cases {
		if _, err := ParsePublicKey(dk); err == nil {
			t.Errorf("case %d (%v): garbage key accepted", i, dk.Algorithm)
		}
	}
}

func TestKeyPairBasics(t *testing.T) {
	ksk := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.FlagsKSK)
	zsk := genKey(t, dnswire.AlgECDSAP256SHA256, dnswire.FlagsZSK)
	if ksk.Flags&dnswire.FlagSEP == 0 || zsk.Flags&dnswire.FlagSEP != 0 {
		t.Error("SEP flag on the wrong key")
	}
	rr := ksk.RR("example.org", 3600)
	if rr.Type != dnswire.TypeDNSKEY || rr.Name != "example.org" {
		t.Errorf("RR: %v", rr)
	}
	if ksk.KeyTag() != ksk.DNSKEY().KeyTag() {
		t.Error("KeyTag disagrees with DNSKEY")
	}
	if _, err := GenerateKeyPair(dnswire.Algorithm(200), dnswire.FlagsZSK, nil); err == nil {
		t.Error("unknown algorithm accepted")
	}
}

func BenchmarkSignAlgorithms(b *testing.B) {
	rrs := sampleRRSet()
	for _, alg := range []dnswire.Algorithm{
		dnswire.AlgRSASHA256, dnswire.AlgECDSAP256SHA256, dnswire.AlgED25519,
	} {
		key := genKey(b, alg, dnswire.FlagsZSK)
		b.Run("sign/"+alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := SignRRSet(rrs, key, "example.org", testWindow); err != nil {
					b.Fatal(err)
				}
			}
		})
		sigRR, err := SignRRSet(rrs, key, "example.org", testWindow)
		if err != nil {
			b.Fatal(err)
		}
		sig := sigRR.Data.(*dnswire.RRSIG)
		dk := key.DNSKEY()
		b.Run("verify/"+alg.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if err := VerifyRRSet(rrs, sig, dk, testNow); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
