// Package dnssec implements DNSSEC cryptographic operations (RFC 4033-4035):
// key pair generation, RRset signing and verification in canonical form,
// DS digest computation, and a chain-of-trust validator.
//
// Three algorithms are supported, matching what dominates real deployment:
// RSA/SHA-256 (8), ECDSA P-256/SHA-256 (13) and Ed25519 (15). All
// cryptography is performed by the Go standard library; nothing in the
// registrarsec simulation stack fakes a signature.
//
// The package also defines the paper's central classification of a domain's
// DNSSEC state: None, Partial (DNSKEY published but no DS at the parent —
// unverifiable and therefore of "limited value"), and Full (complete chain
// of trust).
package dnssec

import (
	"crypto"
	"crypto/ecdsa"
	"crypto/ed25519"
	"crypto/elliptic"
	"crypto/rand"
	"crypto/rsa"
	"errors"
	"fmt"
	"io"
	"math/big"

	"securepki.org/registrarsec/internal/dnswire"
)

// Errors returned by key handling.
var (
	ErrUnsupportedAlgorithm = errors.New("dnssec: unsupported algorithm")
	ErrBadPublicKey         = errors.New("dnssec: malformed public key")
)

// RSAKeyBits is the modulus size used for generated RSA keys. 1024-bit ZSKs
// were still common in the measurement period, but we default to 2048.
const RSAKeyBits = 2048

// KeyPair is a DNSSEC signing key: the private half plus the precomputed
// DNSKEY RDATA of the public half.
type KeyPair struct {
	Flags     uint16
	Algorithm dnswire.Algorithm

	signer crypto.Signer
	dnskey dnswire.DNSKEY
	tag    uint16
}

// GenerateKeyPair creates a fresh key for the given algorithm with the given
// DNSKEY flags (dnswire.FlagsKSK or dnswire.FlagsZSK). Randomness is drawn
// from rnd, or crypto/rand when rnd is nil.
func GenerateKeyPair(alg dnswire.Algorithm, flags uint16, rnd io.Reader) (*KeyPair, error) {
	if rnd == nil {
		rnd = rand.Reader
	}
	var signer crypto.Signer
	var err error
	switch alg {
	case dnswire.AlgRSASHA256:
		signer, err = rsa.GenerateKey(rnd, RSAKeyBits)
	case dnswire.AlgECDSAP256SHA256:
		signer, err = ecdsa.GenerateKey(elliptic.P256(), rnd)
	case dnswire.AlgED25519:
		_, signer, err = ed25519.GenerateKey(rnd)
	default:
		return nil, fmt.Errorf("%w: %v", ErrUnsupportedAlgorithm, alg)
	}
	if err != nil {
		return nil, fmt.Errorf("dnssec: generating %v key: %w", alg, err)
	}
	return newKeyPair(alg, flags, signer)
}

func newKeyPair(alg dnswire.Algorithm, flags uint16, signer crypto.Signer) (*KeyPair, error) {
	pubWire, err := encodePublicKey(alg, signer.Public())
	if err != nil {
		return nil, err
	}
	kp := &KeyPair{
		Flags:     flags,
		Algorithm: alg,
		signer:    signer,
		dnskey: dnswire.DNSKEY{
			Flags:     flags,
			Protocol:  3,
			Algorithm: alg,
			PublicKey: pubWire,
		},
	}
	kp.tag = kp.dnskey.KeyTag()
	return kp, nil
}

// DNSKEY returns a copy of the public key record data.
func (k *KeyPair) DNSKEY() *dnswire.DNSKEY {
	dk := k.dnskey
	dk.PublicKey = append([]byte(nil), k.dnskey.PublicKey...)
	return &dk
}

// RR returns the DNSKEY resource record for this key at the given zone apex.
func (k *KeyPair) RR(zone string, ttl uint32) *dnswire.RR {
	return dnswire.NewRR(zone, ttl, k.DNSKEY())
}

// KeyTag returns the RFC 4034 Appendix B tag of the public key.
func (k *KeyPair) KeyTag() uint16 { return k.tag }

// encodePublicKey produces the algorithm-specific DNSKEY public key field.
func encodePublicKey(alg dnswire.Algorithm, pub crypto.PublicKey) ([]byte, error) {
	switch alg {
	case dnswire.AlgRSASHA256:
		// RFC 3110: exponent length (1 or 3 octets), exponent, modulus.
		k, ok := pub.(*rsa.PublicKey)
		if !ok {
			return nil, ErrBadPublicKey
		}
		e := big.NewInt(int64(k.E)).Bytes()
		var out []byte
		if len(e) <= 255 {
			out = append(out, byte(len(e)))
		} else {
			out = append(out, 0, byte(len(e)>>8), byte(len(e)))
		}
		out = append(out, e...)
		return append(out, k.N.Bytes()...), nil
	case dnswire.AlgECDSAP256SHA256:
		// RFC 6605: X | Y, each 32 octets.
		k, ok := pub.(*ecdsa.PublicKey)
		if !ok || k.Curve != elliptic.P256() {
			return nil, ErrBadPublicKey
		}
		out := make([]byte, 64)
		k.X.FillBytes(out[:32])
		k.Y.FillBytes(out[32:])
		return out, nil
	case dnswire.AlgED25519:
		// RFC 8080: the 32-octet public key verbatim.
		k, ok := pub.(ed25519.PublicKey)
		if !ok {
			return nil, ErrBadPublicKey
		}
		return append([]byte(nil), k...), nil
	}
	return nil, fmt.Errorf("%w: %v", ErrUnsupportedAlgorithm, alg)
}

// ParsePublicKey decodes the public key carried in a DNSKEY record.
func ParsePublicKey(dk *dnswire.DNSKEY) (crypto.PublicKey, error) {
	b := dk.PublicKey
	switch dk.Algorithm {
	case dnswire.AlgRSASHA256:
		if len(b) < 3 {
			return nil, ErrBadPublicKey
		}
		eLen := int(b[0])
		off := 1
		if eLen == 0 {
			if len(b) < 3 {
				return nil, ErrBadPublicKey
			}
			eLen = int(b[1])<<8 | int(b[2])
			off = 3
		}
		if eLen == 0 || len(b) < off+eLen+1 {
			return nil, ErrBadPublicKey
		}
		e := new(big.Int).SetBytes(b[off : off+eLen])
		if !e.IsInt64() || e.Int64() > 1<<31-1 || e.Int64() < 3 {
			return nil, fmt.Errorf("%w: bad RSA exponent", ErrBadPublicKey)
		}
		n := new(big.Int).SetBytes(b[off+eLen:])
		if n.BitLen() < 512 || n.BitLen() > 8192 {
			return nil, fmt.Errorf("%w: RSA modulus %d bits", ErrBadPublicKey, n.BitLen())
		}
		return &rsa.PublicKey{N: n, E: int(e.Int64())}, nil
	case dnswire.AlgECDSAP256SHA256:
		if len(b) != 64 {
			return nil, ErrBadPublicKey
		}
		x := new(big.Int).SetBytes(b[:32])
		y := new(big.Int).SetBytes(b[32:])
		pub := &ecdsa.PublicKey{Curve: elliptic.P256(), X: x, Y: y}
		// Reject points not on the curve rather than failing at verify time.
		if !pub.Curve.IsOnCurve(x, y) {
			return nil, fmt.Errorf("%w: point not on P-256", ErrBadPublicKey)
		}
		return pub, nil
	case dnswire.AlgED25519:
		if len(b) != ed25519.PublicKeySize {
			return nil, ErrBadPublicKey
		}
		return ed25519.PublicKey(append([]byte(nil), b...)), nil
	}
	return nil, fmt.Errorf("%w: %v", ErrUnsupportedAlgorithm, dk.Algorithm)
}
