package dnssec

import (
	"bytes"
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/rand"
	"crypto/rsa"
	"crypto/sha256"
	"errors"
	"fmt"
	"math/big"
	"sort"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// Errors returned by signing and verification.
var (
	ErrEmptyRRSet        = errors.New("dnssec: empty RRset")
	ErrMixedRRSet        = errors.New("dnssec: RRset mixes names, types or classes")
	ErrSignatureInvalid  = errors.New("dnssec: signature verification failed")
	ErrSignatureExpired  = errors.New("dnssec: signature outside validity window")
	ErrKeyTagMismatch    = errors.New("dnssec: RRSIG key tag does not match DNSKEY")
	ErrAlgorithmMismatch = errors.New("dnssec: RRSIG algorithm does not match DNSKEY")
	ErrSignerMismatch    = errors.New("dnssec: RRSIG signer is not an ancestor of the owner")
	ErrNotZoneKey        = errors.New("dnssec: DNSKEY lacks the zone key flag")
)

// canonicalRRSetWire returns the canonical wire form of an RRset for
// signature computation (RFC 4034 section 3.1.8.1): each RR rendered with
// uncompressed lowercase owner, the RRSIG's OriginalTTL, and the records
// sorted by canonical RDATA ordering (section 6.3).
func canonicalRRSetWire(rrs []*dnswire.RR, originalTTL uint32) ([]byte, error) {
	if len(rrs) == 0 {
		return nil, ErrEmptyRRSet
	}
	name, typ, class := rrs[0].Name, rrs[0].Type, rrs[0].Class
	type entry struct{ wire []byte }
	entries := make([]entry, 0, len(rrs))
	for _, rr := range rrs {
		if rr.Name != name || rr.Type != typ || rr.Class != class {
			return nil, fmt.Errorf("%w: %s/%s vs %s/%s", ErrMixedRRSet, rr.Name, rr.Type, name, typ)
		}
		canon := &dnswire.RR{Name: rr.Name, Type: rr.Type, Class: rr.Class, TTL: originalTTL, Data: rr.Data}
		w, err := canon.CanonicalWire()
		if err != nil {
			return nil, err
		}
		entries = append(entries, entry{wire: w})
	}
	// Canonical RRset ordering sorts by RDATA as an octet string. Since the
	// owner/type/class/TTL/rdlen prefix is identical across the set,
	// comparing whole records yields the same order.
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].wire, entries[j].wire) < 0
	})
	var out []byte
	var prev []byte
	for _, e := range entries {
		if prev != nil && bytes.Equal(prev, e.wire) {
			continue // duplicate RRs are counted once (RFC 4034 section 6.3)
		}
		out = append(out, e.wire...)
		prev = e.wire
	}
	return out, nil
}

// signedData assembles the exact octet string that is signed: the RRSIG
// RDATA prefix followed by the canonical RRset.
func signedData(sig *dnswire.RRSIG, rrs []*dnswire.RR) ([]byte, error) {
	rrsWire, err := canonicalRRSetWire(rrs, sig.OriginalTTL)
	if err != nil {
		return nil, err
	}
	data := sig.AppendSignedFields(nil)
	return append(data, rrsWire...), nil
}

// SignOptions control RRSIG generation. The RRSIG's TTL and OriginalTTL are
// those of the first record in the set.
type SignOptions struct {
	// Inception and Expiration bound the signature validity window.
	Inception, Expiration time.Time
}

// PendingSig is an RRSIG that lacks only its signature: every field the
// signer chooses is set and the octets the key will sign are assembled, so
// the private-key operation is all that is left — and all that can still
// fail. It is immutable; Sign may be called from any goroutine.
type PendingSig struct {
	owner string
	ttl   uint32
	sig   dnswire.RRSIG // Signature empty
	key   *KeyPair
	data  []byte
}

// PrepareRRSIG does everything SignRRSet does short of the private-key
// operation, and returns every error SignRRSet can return without it: an
// empty, mixed or unpackable RRset, an owner outside signerZone, a key whose
// algorithm cannot sign.
func PrepareRRSIG(rrs []*dnswire.RR, key *KeyPair, signerZone string, opts SignOptions) (*PendingSig, error) {
	if len(rrs) == 0 {
		return nil, ErrEmptyRRSet
	}
	owner := rrs[0].Name
	if !dnswire.IsSubdomain(owner, dnswire.CanonicalName(signerZone)) {
		return nil, fmt.Errorf("%w: %q not under %q", ErrSignerMismatch, owner, signerZone)
	}
	switch key.Algorithm {
	case dnswire.AlgRSASHA256, dnswire.AlgECDSAP256SHA256, dnswire.AlgED25519:
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedAlgorithm, key.Algorithm)
	}
	ttl := rrs[0].TTL
	p := &PendingSig{owner: owner, ttl: ttl, key: key, sig: dnswire.RRSIG{
		TypeCovered: rrs[0].Type,
		Algorithm:   key.Algorithm,
		Labels:      uint8(dnswire.CountLabels(owner)),
		OriginalTTL: ttl,
		Expiration:  uint32(opts.Expiration.Unix()),
		Inception:   uint32(opts.Inception.Unix()),
		KeyTag:      key.KeyTag(),
		SignerName:  dnswire.CanonicalName(signerZone),
	}}
	var err error
	if p.data, err = signedData(&p.sig, rrs); err != nil {
		return nil, err
	}
	return p, nil
}

// Owner and Covered name the RRset the signature will cover.
func (p *PendingSig) Owner() string         { return p.owner }
func (p *PendingSig) Covered() dnswire.Type { return p.sig.TypeCovered }

// Sign performs the private-key operation and returns the RRSIG record.
func (p *PendingSig) Sign() (*dnswire.RR, error) {
	sig := p.sig
	var err error
	if sig.Signature, err = signDigest(p.key, p.data); err != nil {
		return nil, err
	}
	return dnswire.NewRR(p.owner, p.ttl, &sig), nil
}

// SignRRSet produces an RRSIG record over rrs using key, with signerZone as
// the signer name (the apex of the signing zone).
func SignRRSet(rrs []*dnswire.RR, key *KeyPair, signerZone string, opts SignOptions) (*dnswire.RR, error) {
	p, err := PrepareRRSIG(rrs, key, signerZone, opts)
	if err != nil {
		return nil, err
	}
	return p.Sign()
}

// signDigest hashes data per the key's algorithm and signs it, producing the
// DNSSEC wire-format signature.
func signDigest(key *KeyPair, data []byte) ([]byte, error) {
	switch key.Algorithm {
	case dnswire.AlgRSASHA256:
		h := sha256.Sum256(data)
		return key.signer.(*rsa.PrivateKey).Sign(rand.Reader, h[:], crypto.SHA256)
	case dnswire.AlgECDSAP256SHA256:
		h := sha256.Sum256(data)
		r, s, err := ecdsa.Sign(rand.Reader, key.signer.(*ecdsa.PrivateKey), h[:])
		if err != nil {
			return nil, err
		}
		out := make([]byte, 64) // RFC 6605: r | s, 32 octets each
		r.FillBytes(out[:32])
		s.FillBytes(out[32:])
		return out, nil
	case dnswire.AlgED25519:
		return ed25519.Sign(key.signer.(ed25519.PrivateKey), data), nil
	}
	return nil, fmt.Errorf("%w: %v", ErrUnsupportedAlgorithm, key.Algorithm)
}

// VerifyRRSet checks sig over rrs against the public key in dk, evaluating
// the validity window at time now.
func VerifyRRSet(rrs []*dnswire.RR, sig *dnswire.RRSIG, dk *dnswire.DNSKEY, now time.Time) error {
	if len(rrs) == 0 {
		return ErrEmptyRRSet
	}
	if !dk.IsZoneKey() {
		return ErrNotZoneKey
	}
	if sig.Algorithm != dk.Algorithm {
		return ErrAlgorithmMismatch
	}
	if sig.KeyTag != dk.KeyTag() {
		return ErrKeyTagMismatch
	}
	if sig.TypeCovered != rrs[0].Type {
		return fmt.Errorf("dnssec: RRSIG covers %v, RRset is %v", sig.TypeCovered, rrs[0].Type)
	}
	if !dnswire.IsSubdomain(rrs[0].Name, sig.SignerName) {
		return ErrSignerMismatch
	}
	if !sig.ValidAt(now) {
		return fmt.Errorf("%w: [%d, %d] at %d", ErrSignatureExpired, sig.Inception, sig.Expiration, now.Unix())
	}
	data, err := signedData(sig, rrs)
	if err != nil {
		return err
	}
	pub, err := ParsePublicKey(dk)
	if err != nil {
		return err
	}
	switch dk.Algorithm {
	case dnswire.AlgRSASHA256:
		h := sha256.Sum256(data)
		if err := rsa.VerifyPKCS1v15(pub.(*rsa.PublicKey), crypto.SHA256, h[:], sig.Signature); err != nil {
			return ErrSignatureInvalid
		}
	case dnswire.AlgECDSAP256SHA256:
		if len(sig.Signature) != 64 {
			return ErrSignatureInvalid
		}
		h := sha256.Sum256(data)
		r := new(big.Int).SetBytes(sig.Signature[:32])
		s := new(big.Int).SetBytes(sig.Signature[32:])
		if !ecdsa.Verify(pub.(*ecdsa.PublicKey), h[:], r, s) {
			return ErrSignatureInvalid
		}
	case dnswire.AlgED25519:
		if !ed25519.Verify(pub.(ed25519.PublicKey), data, sig.Signature) {
			return ErrSignatureInvalid
		}
	default:
		return fmt.Errorf("%w: %v", ErrUnsupportedAlgorithm, dk.Algorithm)
	}
	return nil
}

// VerifyWithAnyKey tries every DNSKEY in keys whose tag and algorithm match
// the signature; it succeeds if any verifies.
func VerifyWithAnyKey(rrs []*dnswire.RR, sig *dnswire.RRSIG, keys []*dnswire.DNSKEY, now time.Time) error {
	var lastErr error = ErrKeyTagMismatch
	for _, dk := range keys {
		if dk.KeyTag() != sig.KeyTag || dk.Algorithm != sig.Algorithm {
			continue
		}
		if err := VerifyRRSet(rrs, sig, dk, now); err != nil {
			lastErr = err
			continue
		}
		return nil
	}
	return lastErr
}
