package dnswire

import (
	"encoding/binary"
	"errors"
)

// Lazy query parsing: the serving hot path only needs the question and the
// EDNS DO bit to key a wire-response cache, so it must not pay for a full
// Message materialization (section slices, RData decoding, string
// allocation per label) on every packet. ParseQueryView extracts exactly
// that skeleton straight from the raw datagram into caller-owned scratch.
//
// The fast path deliberately accepts a strict subset of what
// Message.Unpack accepts: one INET question, opcode QUERY, QR clear, empty
// answer/authority sections, and at most one additional record which must
// be an OPT. Anything else — including qnames with non-ASCII octets — falls
// back to the full parser. The subset property is what FuzzServeDNS pins
// down: ParseQueryView success implies Unpack success with an identical
// (qname, qtype, DO) view, so a cache keyed by the lazy view can never
// disagree with a response rendered from the full parse — nor can the
// response an authoritative server renders from the view itself on a miss.

var errNotFastPath = errors.New("dnswire: packet outside the lazy-parse fast path")

// QueryView is the routing skeleton of one DNS query. Name aliases the
// scratch buffer passed to ParseQueryView and is only valid until the next
// call reusing that buffer.
type QueryView struct {
	ID               uint16
	RecursionDesired bool
	// Name is the canonical (lowercased, no trailing dot) qname.
	Name  []byte
	Type  Type
	Class Class
	// HasEDNS reports an OPT record in the additional section; UDPSize and
	// DNSSECOK are only meaningful when it is set.
	HasEDNS  bool
	DNSSECOK bool
	UDPSize  uint16
}

// MaxPayload returns the UDP response size the sender can accept: what its
// OPT advertises, or the classic 512-octet limit without EDNS0. RFC 6891
// section 6.2.3 requires an advertised size below 512 to be treated as 512.
func (v *QueryView) MaxPayload() int {
	if v.HasEDNS {
		return max(int(v.UDPSize), MaxUDPPayload)
	}
	return MaxUDPPayload
}

// ParseQueryView decodes a query's skeleton without materializing a
// Message. buf is caller-owned scratch for the canonical qname; the
// (possibly grown) buffer is returned so callers can recycle it. On any
// deviation from the fast-path subset it returns an error and the caller
// must fall back to Message.Unpack.
func ParseQueryView(pkt, buf []byte) (QueryView, []byte, error) {
	var v QueryView
	if len(pkt) < 12 {
		return v, buf, ErrTruncatedMessage
	}
	v.ID = binary.BigEndian.Uint16(pkt)
	flags := binary.BigEndian.Uint16(pkt[2:])
	if flags&(1<<15) != 0 { // QR: a response, not a query
		return v, buf, errNotFastPath
	}
	if OpCode(flags>>11&0xf) != OpCodeQuery {
		return v, buf, errNotFastPath
	}
	v.RecursionDesired = flags&(1<<8) != 0
	qd := binary.BigEndian.Uint16(pkt[4:])
	an := binary.BigEndian.Uint16(pkt[6:])
	ns := binary.BigEndian.Uint16(pkt[8:])
	ar := binary.BigEndian.Uint16(pkt[10:])
	if qd != 1 || an != 0 || ns != 0 || ar > 1 {
		return v, buf, errNotFastPath
	}
	buf = buf[:0]
	buf, off, err := appendCanonicalName(buf, pkt, 12)
	if err != nil {
		return v, buf, err
	}
	nameLen := len(buf)
	if off+4 > len(pkt) {
		return v, buf, ErrTruncatedMessage
	}
	v.Type = Type(binary.BigEndian.Uint16(pkt[off:]))
	v.Class = Class(binary.BigEndian.Uint16(pkt[off+2:]))
	if v.Class != ClassINET {
		return v, buf, errNotFastPath
	}
	off += 4
	if ar == 1 {
		// The additional record's owner name is walked with the same
		// validation as the qname (so lazy success still implies full-parse
		// success) but its bytes are discarded.
		buf2, n, err := appendCanonicalName(buf, pkt, off)
		buf = buf2[:nameLen]
		if err != nil {
			return v, buf, err
		}
		off = n
		if off+10 > len(pkt) {
			return v, buf, ErrTruncatedMessage
		}
		if Type(binary.BigEndian.Uint16(pkt[off:])) != TypeOPT {
			return v, buf, errNotFastPath
		}
		v.HasEDNS = true
		v.UDPSize = binary.BigEndian.Uint16(pkt[off+2:])
		ttl := binary.BigEndian.Uint32(pkt[off+4:])
		v.DNSSECOK = ttl&doBit != 0
		rdlen := int(binary.BigEndian.Uint16(pkt[off+8:]))
		off += 10 + rdlen
		if off > len(pkt) {
			return v, buf, ErrTruncatedMessage
		}
	}
	if off != len(pkt) {
		return v, buf, errNotFastPath // trailing octets: Unpack rejects these too
	}
	v.Name = buf[:nameLen]
	return v, buf, nil
}

// appendCanonicalName is unpackName with the allocation removed: it appends
// the canonical (lowercased, dot-separated, no trailing dot) name to dst
// and returns the offset just past the name in the original stream. It
// enforces the same compression-pointer and length rules as unpackName,
// plus one extra restriction — labels must be pure ASCII. Non-ASCII names
// take the full-parse path instead.
func appendCanonicalName(dst []byte, msg []byte, off int) ([]byte, int, error) {
	start := len(dst)
	ptrBudget := 32
	end := -1
	wireLen := 0
	for {
		if off >= len(msg) {
			return dst, 0, ErrTruncatedMessage
		}
		c := int(msg[off])
		switch {
		case c == 0:
			if end < 0 {
				end = off + 1
			}
			if len(dst) > start {
				dst = dst[:len(dst)-1] // drop the trailing label separator
			}
			return dst, end, nil
		case c&0xc0 == 0xc0:
			if off+1 >= len(msg) {
				return dst, 0, ErrTruncatedMessage
			}
			ptr := (c&0x3f)<<8 | int(msg[off+1])
			if ptr >= off {
				return dst, 0, ErrBadCompression
			}
			if end < 0 {
				end = off + 2
			}
			if ptrBudget--; ptrBudget <= 0 {
				return dst, 0, ErrBadCompression
			}
			off = ptr
		case c&0xc0 != 0:
			return dst, 0, errNotFastPath
		default:
			if off+1+c > len(msg) {
				return dst, 0, ErrTruncatedMessage
			}
			wireLen += 1 + c
			if wireLen+1 > MaxNameWireLen {
				return dst, 0, ErrNameTooLong
			}
			for _, b := range msg[off+1 : off+1+c] {
				// Non-ASCII falls back to the full parse, and so does a
				// literal '.' inside a label, which dotted text cannot
				// carry: the full parse refuses it.
				if b >= 0x80 || b == '.' {
					return dst, 0, errNotFastPath
				}
				if 'A' <= b && b <= 'Z' {
					b += 'a' - 'A'
				}
				dst = append(dst, b)
			}
			dst = append(dst, '.')
			off += 1 + c
		}
	}
}
