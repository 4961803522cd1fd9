package dnswire

import (
	"encoding/base64"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strconv"
	"strings"
	"time"
)

// RData is the type-specific payload of a resource record. Implementations
// provide wire encoding (appendRData), presentation formatting (String) and
// their own type code. Names embedded in RDATA are never compressed when
// packing, which keeps the wire form identical to the RFC 4034 canonical
// form used for signing.
type RData interface {
	// Type returns the RR type code this payload belongs to.
	Type() Type
	// String returns the presentation (zone-file) form of the RDATA.
	String() string
	// appendRData appends the wire encoding to buf.
	appendRData(buf []byte) ([]byte, error)
}

// errRDataLen reports an RDATA whose length does not match its type.
var errRDataLen = errors.New("dnswire: bad rdata length")

// ---------------------------------------------------------------- A / AAAA

// A is an IPv4 address record.
type A struct {
	Addr netip.Addr
}

// Type implements RData.
func (*A) Type() Type { return TypeA }

// String implements RData.
func (r *A) String() string { return r.Addr.String() }

func (r *A) appendRData(buf []byte) ([]byte, error) {
	if !r.Addr.Is4() {
		return buf, fmt.Errorf("dnswire: A record requires IPv4 address, got %v", r.Addr)
	}
	b := r.Addr.As4()
	return append(buf, b[:]...), nil
}

// AAAA is an IPv6 address record.
type AAAA struct {
	Addr netip.Addr
}

// Type implements RData.
func (*AAAA) Type() Type { return TypeAAAA }

// String implements RData.
func (r *AAAA) String() string { return r.Addr.String() }

func (r *AAAA) appendRData(buf []byte) ([]byte, error) {
	if !r.Addr.Is6() || r.Addr.Is4In6() {
		return buf, fmt.Errorf("dnswire: AAAA record requires IPv6 address, got %v", r.Addr)
	}
	b := r.Addr.As16()
	return append(buf, b[:]...), nil
}

// ------------------------------------------------------- NS / CNAME / PTR

// NS names an authoritative nameserver for the owner zone.
type NS struct {
	Host string
}

// Type implements RData.
func (*NS) Type() Type { return TypeNS }

// String implements RData.
func (r *NS) String() string { return presentName(r.Host) }

func (r *NS) appendRData(buf []byte) ([]byte, error) {
	return appendName(buf, r.Host, nil)
}

// CNAME aliases the owner name to Target.
type CNAME struct {
	Target string
}

// Type implements RData.
func (*CNAME) Type() Type { return TypeCNAME }

// String implements RData.
func (r *CNAME) String() string { return presentName(r.Target) }

func (r *CNAME) appendRData(buf []byte) ([]byte, error) {
	return appendName(buf, r.Target, nil)
}

// PTR maps an address back to a name.
type PTR struct {
	Target string
}

// Type implements RData.
func (*PTR) Type() Type { return TypePTR }

// String implements RData.
func (r *PTR) String() string { return presentName(r.Target) }

func (r *PTR) appendRData(buf []byte) ([]byte, error) {
	return appendName(buf, r.Target, nil)
}

// ---------------------------------------------------------------- MX / TXT

// MX names a mail exchanger with a preference value.
type MX struct {
	Pref uint16
	Host string
}

// Type implements RData.
func (*MX) Type() Type { return TypeMX }

// String implements RData.
func (r *MX) String() string {
	return strconv.Itoa(int(r.Pref)) + " " + presentName(r.Host)
}

func (r *MX) appendRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, r.Pref)
	return appendName(buf, r.Host, nil)
}

// TXT carries one or more character strings.
type TXT struct {
	Strings []string
}

// Type implements RData.
func (*TXT) Type() Type { return TypeTXT }

// String implements RData: each string quoted, with a quote or a backslash
// escaped by a backslash and any byte outside printable ASCII as \DDD
// (RFC 1035 section 5.1).
func (r *TXT) String() string {
	var b strings.Builder
	for i, s := range r.Strings {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteByte('"')
		for j := 0; j < len(s); j++ {
			switch c := s[j]; {
			case c == '"' || c == '\\':
				b.WriteByte('\\')
				b.WriteByte(c)
			case c < ' ' || c > '~':
				fmt.Fprintf(&b, "\\%03d", c)
			default:
				b.WriteByte(c)
			}
		}
		b.WriteByte('"')
	}
	return b.String()
}

func (r *TXT) appendRData(buf []byte) ([]byte, error) {
	if len(r.Strings) == 0 {
		return buf, errors.New("dnswire: TXT record requires at least one string")
	}
	for _, s := range r.Strings {
		if len(s) > 255 {
			return buf, errors.New("dnswire: TXT string exceeds 255 octets")
		}
		buf = append(buf, byte(len(s)))
		buf = append(buf, s...)
	}
	return buf, nil
}

// --------------------------------------------------------------------- SOA

// SOA is the start-of-authority record for a zone.
type SOA struct {
	MName   string // primary nameserver
	RName   string // responsible mailbox (dots-as-at encoding)
	Serial  uint32
	Refresh uint32
	Retry   uint32
	Expire  uint32
	Minimum uint32 // negative-caching TTL
}

// Type implements RData.
func (*SOA) Type() Type { return TypeSOA }

// String implements RData.
func (r *SOA) String() string {
	return fmt.Sprintf("%s %s %d %d %d %d %d",
		presentName(r.MName), presentName(r.RName),
		r.Serial, r.Refresh, r.Retry, r.Expire, r.Minimum)
}

func (r *SOA) appendRData(buf []byte) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, r.MName, nil); err != nil {
		return buf, err
	}
	if buf, err = appendName(buf, r.RName, nil); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint32(buf, r.Serial)
	buf = binary.BigEndian.AppendUint32(buf, r.Refresh)
	buf = binary.BigEndian.AppendUint32(buf, r.Retry)
	buf = binary.BigEndian.AppendUint32(buf, r.Expire)
	buf = binary.BigEndian.AppendUint32(buf, r.Minimum)
	return buf, nil
}

// ------------------------------------------------------------------ DNSKEY

// DNSKEY is a DNSSEC public key record (RFC 4034 section 2).
type DNSKEY struct {
	Flags     uint16 // FlagsZSK or FlagsKSK in practice
	Protocol  uint8  // must be 3
	Algorithm Algorithm
	PublicKey []byte // algorithm-specific encoding
}

// Type implements RData.
func (*DNSKEY) Type() Type { return TypeDNSKEY }

// String implements RData.
func (r *DNSKEY) String() string {
	return fmt.Sprintf("%d %d %d %s", r.Flags, r.Protocol, uint8(r.Algorithm),
		base64.StdEncoding.EncodeToString(r.PublicKey))
}

func (r *DNSKEY) appendRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, r.Flags)
	buf = append(buf, r.Protocol, byte(r.Algorithm))
	return append(buf, r.PublicKey...), nil
}

// IsZoneKey reports whether the Zone flag bit is set; keys without it must
// not be used to validate RRSIGs.
func (r *DNSKEY) IsZoneKey() bool { return r.Flags&FlagZone != 0 }

// IsSEP reports whether the Secure Entry Point bit is set (conventionally a
// KSK).
func (r *DNSKEY) IsSEP() bool { return r.Flags&FlagSEP != 0 }

// KeyTag computes the RFC 4034 Appendix B key tag over the record's wire
// form.
func (r *DNSKEY) KeyTag() uint16 {
	wire, err := r.appendRData(nil)
	if err != nil {
		return 0
	}
	var acc uint32
	for i, b := range wire {
		if i&1 == 0 {
			acc += uint32(b) << 8
		} else {
			acc += uint32(b)
		}
	}
	acc += acc >> 16 & 0xffff
	return uint16(acc)
}

// CDNSKEY is the child copy of a DNSKEY, published to request that the
// parent update its DS RRset (RFC 7344).
type CDNSKEY struct {
	DNSKEY
}

// Type implements RData.
func (*CDNSKEY) Type() Type { return TypeCDNSKEY }

// ------------------------------------------------------------------- RRSIG

// rrsigTimeFormat is the presentation format of RRSIG timestamps.
const rrsigTimeFormat = "20060102150405"

// RRSIG is a DNSSEC signature over one RRset (RFC 4034 section 3).
type RRSIG struct {
	TypeCovered Type
	Algorithm   Algorithm
	Labels      uint8
	OriginalTTL uint32
	Expiration  uint32 // seconds since epoch, serial arithmetic
	Inception   uint32
	KeyTag      uint16
	SignerName  string
	Signature   []byte
}

// Type implements RData.
func (*RRSIG) Type() Type { return TypeRRSIG }

// String implements RData.
func (r *RRSIG) String() string {
	return fmt.Sprintf("%s %d %d %d %s %s %d %s %s",
		r.TypeCovered, uint8(r.Algorithm), r.Labels, r.OriginalTTL,
		time.Unix(int64(r.Expiration), 0).UTC().Format(rrsigTimeFormat),
		time.Unix(int64(r.Inception), 0).UTC().Format(rrsigTimeFormat),
		r.KeyTag, presentName(r.SignerName),
		base64.StdEncoding.EncodeToString(r.Signature))
}

func (r *RRSIG) appendRData(buf []byte) ([]byte, error) {
	buf = r.AppendSignedFields(buf)
	return append(buf, r.Signature...), nil
}

// AppendSignedFields appends the RDATA fields up to but excluding the
// signature itself — exactly the prefix that is input to the signature
// computation (RFC 4034 section 3.1.8.1).
func (r *RRSIG) AppendSignedFields(buf []byte) []byte {
	buf = binary.BigEndian.AppendUint16(buf, uint16(r.TypeCovered))
	buf = append(buf, byte(r.Algorithm), r.Labels)
	buf = binary.BigEndian.AppendUint32(buf, r.OriginalTTL)
	buf = binary.BigEndian.AppendUint32(buf, r.Expiration)
	buf = binary.BigEndian.AppendUint32(buf, r.Inception)
	buf = binary.BigEndian.AppendUint16(buf, r.KeyTag)
	buf, _ = appendName(buf, r.SignerName, nil)
	return buf
}

// ValidAt reports whether t falls within the signature validity window.
func (r *RRSIG) ValidAt(t time.Time) bool {
	now := uint32(t.Unix())
	// Serial-number arithmetic (RFC 1982) is overkill for our horizon;
	// direct comparison is correct for dates between 1970 and 2106.
	return r.Inception <= now && now <= r.Expiration
}

// ---------------------------------------------------------------- DS / CDS

// DS is a delegation-signer record: a digest of a child zone's KSK,
// published in the parent zone (RFC 4034 section 5). The DS RRset is the
// link in the chain of trust that registrars must upload to the registry —
// the operational step this paper shows is so frequently botched.
type DS struct {
	KeyTag     uint16
	Algorithm  Algorithm
	DigestType DigestType
	Digest     []byte
}

// Type implements RData.
func (*DS) Type() Type { return TypeDS }

// String implements RData.
func (r *DS) String() string {
	return fmt.Sprintf("%d %d %d %s", r.KeyTag, uint8(r.Algorithm),
		uint8(r.DigestType), strings.ToUpper(hex.EncodeToString(r.Digest)))
}

func (r *DS) appendRData(buf []byte) ([]byte, error) {
	buf = binary.BigEndian.AppendUint16(buf, r.KeyTag)
	buf = append(buf, byte(r.Algorithm), byte(r.DigestType))
	return append(buf, r.Digest...), nil
}

// CDS is the child's requested DS RRset (RFC 7344).
type CDS struct {
	DS
}

// Type implements RData.
func (*CDS) Type() Type { return TypeCDS }

// -------------------------------------------------------------------- NSEC

// NSEC provides authenticated denial of existence (RFC 4034 section 4).
type NSEC struct {
	NextName string
	Types    []Type // sorted, deduplicated set of types at the owner
}

// Type implements RData.
func (*NSEC) Type() Type { return TypeNSEC }

// String implements RData.
func (r *NSEC) String() string {
	parts := make([]string, 0, len(r.Types)+1)
	parts = append(parts, presentName(r.NextName))
	for _, t := range r.Types {
		parts = append(parts, t.String())
	}
	return strings.Join(parts, " ")
}

func (r *NSEC) appendRData(buf []byte) ([]byte, error) {
	buf, err := appendName(buf, r.NextName, nil)
	if err != nil {
		return buf, err
	}
	return appendTypeBitmap(buf, r.Types)
}

// appendTypeBitmap encodes the RFC 4034 section 4.1.2 type bitmap.
func appendTypeBitmap(buf []byte, types []Type) ([]byte, error) {
	if len(types) == 0 {
		return buf, nil
	}
	sorted := append([]Type(nil), types...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	var window = -1
	var bits [32]byte
	var maxOctet int
	flush := func() {
		if window >= 0 {
			buf = append(buf, byte(window), byte(maxOctet+1))
			buf = append(buf, bits[:maxOctet+1]...)
		}
	}
	for _, t := range sorted {
		w := int(t >> 8)
		if w != window {
			flush()
			window, maxOctet = w, 0
			bits = [32]byte{}
		}
		low := int(t & 0xff)
		bits[low/8] |= 0x80 >> (low % 8)
		if low/8 > maxOctet {
			maxOctet = low / 8
		}
	}
	flush()
	return buf, nil
}

// parseTypeBitmap decodes an RFC 4034 type bitmap.
func parseTypeBitmap(b []byte) ([]Type, error) {
	var types []Type
	for len(b) > 0 {
		if len(b) < 2 {
			return nil, errRDataLen
		}
		window, n := int(b[0]), int(b[1])
		if n < 1 || n > 32 || len(b) < 2+n {
			return nil, errRDataLen
		}
		for i := 0; i < n; i++ {
			for bit := 0; bit < 8; bit++ {
				if b[2+i]&(0x80>>bit) != 0 {
					types = append(types, Type(window<<8|i*8+bit))
				}
			}
		}
		b = b[2+n:]
	}
	return types, nil
}

// ----------------------------------------------------------------- Generic

// Generic carries the raw RDATA of any type this package does not model,
// preserved verbatim (RFC 3597).
type Generic struct {
	T    Type
	Data []byte
}

// Type implements RData.
func (r *Generic) Type() Type { return r.T }

// String implements RData in the RFC 3597 \# form.
func (r *Generic) String() string {
	return fmt.Sprintf("\\# %d %s", len(r.Data), hex.EncodeToString(r.Data))
}

func (r *Generic) appendRData(buf []byte) ([]byte, error) {
	return append(buf, r.Data...), nil
}

// presentName renders a canonical name in presentation form with the
// trailing dot, "." for the root.
func presentName(name string) string {
	if name == "" {
		return "."
	}
	return name + "."
}

// unpackRData decodes the RDATA of the given type from msg[off:off+rdlen].
// Names inside RDATA may use compression (pointing into the whole message).
func unpackRData(t Type, msg []byte, off, rdlen int) (RData, error) {
	if off+rdlen > len(msg) {
		return nil, ErrTruncatedMessage
	}
	rd := msg[off : off+rdlen]
	switch t {
	case TypeA:
		if rdlen != 4 {
			return nil, errRDataLen
		}
		return &A{Addr: netip.AddrFrom4([4]byte(rd))}, nil
	case TypeAAAA:
		if rdlen != 16 {
			return nil, errRDataLen
		}
		return &AAAA{Addr: netip.AddrFrom16([16]byte(rd))}, nil
	case TypeNS, TypeCNAME, TypePTR:
		name, _, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		switch t {
		case TypeNS:
			return &NS{Host: name}, nil
		case TypeCNAME:
			return &CNAME{Target: name}, nil
		default:
			return &PTR{Target: name}, nil
		}
	case TypeMX:
		if rdlen < 3 {
			return nil, errRDataLen
		}
		host, _, err := unpackName(msg, off+2)
		if err != nil {
			return nil, err
		}
		return &MX{Pref: binary.BigEndian.Uint16(rd), Host: host}, nil
	case TypeTXT:
		var ss []string
		for p := 0; p < rdlen; {
			n := int(rd[p])
			if p+1+n > rdlen {
				return nil, errRDataLen
			}
			ss = append(ss, string(rd[p+1:p+1+n]))
			p += 1 + n
		}
		if len(ss) == 0 {
			return nil, errRDataLen
		}
		return &TXT{Strings: ss}, nil
	case TypeSOA:
		mname, p, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		rname, p, err := unpackName(msg, p)
		if err != nil {
			return nil, err
		}
		if p+20 > off+rdlen {
			return nil, errRDataLen
		}
		f := msg[p:]
		return &SOA{
			MName: mname, RName: rname,
			Serial:  binary.BigEndian.Uint32(f[0:]),
			Refresh: binary.BigEndian.Uint32(f[4:]),
			Retry:   binary.BigEndian.Uint32(f[8:]),
			Expire:  binary.BigEndian.Uint32(f[12:]),
			Minimum: binary.BigEndian.Uint32(f[16:]),
		}, nil
	case TypeDNSKEY, TypeCDNSKEY:
		if rdlen < 4 {
			return nil, errRDataLen
		}
		dk := DNSKEY{
			Flags:     binary.BigEndian.Uint16(rd),
			Protocol:  rd[2],
			Algorithm: Algorithm(rd[3]),
			PublicKey: append([]byte(nil), rd[4:]...),
		}
		if t == TypeCDNSKEY {
			return &CDNSKEY{DNSKEY: dk}, nil
		}
		return &dk, nil
	case TypeRRSIG:
		if rdlen < 18 {
			return nil, errRDataLen
		}
		signer, p, err := unpackName(msg, off+18)
		if err != nil {
			return nil, err
		}
		if p > off+rdlen {
			return nil, errRDataLen
		}
		return &RRSIG{
			TypeCovered: Type(binary.BigEndian.Uint16(rd)),
			Algorithm:   Algorithm(rd[2]),
			Labels:      rd[3],
			OriginalTTL: binary.BigEndian.Uint32(rd[4:]),
			Expiration:  binary.BigEndian.Uint32(rd[8:]),
			Inception:   binary.BigEndian.Uint32(rd[12:]),
			KeyTag:      binary.BigEndian.Uint16(rd[16:]),
			SignerName:  signer,
			Signature:   append([]byte(nil), msg[p:off+rdlen]...),
		}, nil
	case TypeDS, TypeCDS:
		if rdlen < 4 {
			return nil, errRDataLen
		}
		ds := DS{
			KeyTag:     binary.BigEndian.Uint16(rd),
			Algorithm:  Algorithm(rd[2]),
			DigestType: DigestType(rd[3]),
			Digest:     append([]byte(nil), rd[4:]...),
		}
		if t == TypeCDS {
			return &CDS{DS: ds}, nil
		}
		return &ds, nil
	case TypeNSEC3:
		return unpackNSEC3(rd)
	case TypeNSEC3PARAM:
		return unpackNSEC3PARAM(rd)
	case TypeNSEC:
		next, p, err := unpackName(msg, off)
		if err != nil {
			return nil, err
		}
		if p > off+rdlen {
			// The embedded name ran past the declared RDLENGTH.
			return nil, errRDataLen
		}
		types, err := parseTypeBitmap(msg[p : off+rdlen])
		if err != nil {
			return nil, err
		}
		return &NSEC{NextName: next, Types: types}, nil
	default:
		return &Generic{T: t, Data: append([]byte(nil), rd...)}, nil
	}
}
