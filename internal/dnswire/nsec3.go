package dnswire

// NSEC3 and NSEC3PARAM records (RFC 5155): hashed authenticated denial of
// existence. Real-world signed zones — including most of the TLD zones the
// paper scans — use NSEC3 rather than NSEC to prevent trivial zone
// enumeration.

import (
	"encoding/base32"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"strings"
)

// NSEC3 record types.
const (
	TypeNSEC3      Type = 50
	TypeNSEC3PARAM Type = 51
)

// NSEC3HashSHA1 is the only hash algorithm defined for NSEC3.
const NSEC3HashSHA1 uint8 = 1

// base32Hex is the RFC 4648 extended-hex alphabet without padding, as used
// for NSEC3 owner labels.
var base32Hex = base32.HexEncoding.WithPadding(base32.NoPadding)

// NSEC3 provides hashed denial of existence (RFC 5155 section 3).
type NSEC3 struct {
	HashAlg    uint8
	Flags      uint8
	Iterations uint16
	Salt       []byte
	NextHashed []byte // binary hash of the next owner in hash order
	Types      []Type
}

// Type implements RData.
func (*NSEC3) Type() Type { return TypeNSEC3 }

// String implements RData in the standard presentation form.
func (r *NSEC3) String() string {
	salt := "-"
	if len(r.Salt) > 0 {
		salt = strings.ToUpper(hex.EncodeToString(r.Salt))
	}
	parts := []string{
		fmt.Sprintf("%d %d %d %s %s", r.HashAlg, r.Flags, r.Iterations, salt,
			strings.ToLower(base32Hex.EncodeToString(r.NextHashed))),
	}
	for _, t := range r.Types {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}

func (r *NSEC3) appendRData(buf []byte) ([]byte, error) {
	if len(r.Salt) > 255 {
		return buf, fmt.Errorf("dnswire: NSEC3 salt exceeds 255 octets")
	}
	if len(r.NextHashed) > 255 {
		return buf, fmt.Errorf("dnswire: NSEC3 hash exceeds 255 octets")
	}
	buf = append(buf, r.HashAlg, r.Flags)
	buf = binary.BigEndian.AppendUint16(buf, r.Iterations)
	buf = append(buf, byte(len(r.Salt)))
	buf = append(buf, r.Salt...)
	buf = append(buf, byte(len(r.NextHashed)))
	buf = append(buf, r.NextHashed...)
	return appendTypeBitmap(buf, r.Types)
}

// NSEC3PARAM advertises a zone's NSEC3 parameters at the apex (RFC 5155
// section 4).
type NSEC3PARAM struct {
	HashAlg    uint8
	Flags      uint8
	Iterations uint16
	Salt       []byte
}

// Type implements RData.
func (*NSEC3PARAM) Type() Type { return TypeNSEC3PARAM }

// String implements RData.
func (r *NSEC3PARAM) String() string {
	salt := "-"
	if len(r.Salt) > 0 {
		salt = strings.ToUpper(hex.EncodeToString(r.Salt))
	}
	return fmt.Sprintf("%d %d %d %s", r.HashAlg, r.Flags, r.Iterations, salt)
}

func (r *NSEC3PARAM) appendRData(buf []byte) ([]byte, error) {
	if len(r.Salt) > 255 {
		return buf, fmt.Errorf("dnswire: NSEC3PARAM salt exceeds 255 octets")
	}
	buf = append(buf, r.HashAlg, r.Flags)
	buf = binary.BigEndian.AppendUint16(buf, r.Iterations)
	buf = append(buf, byte(len(r.Salt)))
	return append(buf, r.Salt...), nil
}

// unpackNSEC3 decodes NSEC3 RDATA.
func unpackNSEC3(rd []byte) (RData, error) {
	if len(rd) < 5 {
		return nil, errRDataLen
	}
	saltLen := int(rd[4])
	if len(rd) < 5+saltLen+1 {
		return nil, errRDataLen
	}
	hashLen := int(rd[5+saltLen])
	if len(rd) < 6+saltLen+hashLen {
		return nil, errRDataLen
	}
	types, err := parseTypeBitmap(rd[6+saltLen+hashLen:])
	if err != nil {
		return nil, err
	}
	return &NSEC3{
		HashAlg:    rd[0],
		Flags:      rd[1],
		Iterations: binary.BigEndian.Uint16(rd[2:]),
		Salt:       append([]byte(nil), rd[5:5+saltLen]...),
		NextHashed: append([]byte(nil), rd[6+saltLen:6+saltLen+hashLen]...),
		Types:      types,
	}, nil
}

// unpackNSEC3PARAM decodes NSEC3PARAM RDATA.
func unpackNSEC3PARAM(rd []byte) (RData, error) {
	if len(rd) < 5 {
		return nil, errRDataLen
	}
	saltLen := int(rd[4])
	if len(rd) != 5+saltLen {
		return nil, errRDataLen
	}
	return &NSEC3PARAM{
		HashAlg:    rd[0],
		Flags:      rd[1],
		Iterations: binary.BigEndian.Uint16(rd[2:]),
		Salt:       append([]byte(nil), rd[5:]...),
	}, nil
}

// Base32HexEncode renders an NSEC3 hash as an owner label (lowercase).
func Base32HexEncode(h []byte) string {
	return strings.ToLower(base32Hex.EncodeToString(h))
}

// Base32HexDecode parses an NSEC3 owner label back to its hash.
func Base32HexDecode(label string) ([]byte, error) {
	return base32Hex.DecodeString(strings.ToUpper(label))
}
