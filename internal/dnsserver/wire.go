package dnsserver

import (
	"bytes"
	"encoding/binary"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// Wire-level serving: the raw-packet entry points the UDP worker loops
// drive. ServeWireFast is the zero-alloc cache-hit path (lazy parse → key
// → lock-free lookup → copy + patch ID/RD); ServeWireFull is the miss
// path (full parse → render → pack → guarded cache fill).

// WireScratch is per-worker reusable state for the wire paths. All slices
// grow once and are recycled; Message q is reused across full parses.
type WireScratch struct {
	name []byte
	key  []byte
	pack []byte
	out  []byte
	q    dnswire.Message
}

// NewWireScratch allocates scratch sized for typical authoritative traffic.
func NewWireScratch() *WireScratch {
	return &WireScratch{
		name: make([]byte, 0, 256),
		key:  make([]byte, 0, 272),
		pack: make([]byte, 0, 2048),
		out:  make([]byte, 0, 2048),
	}
}

// header flag bits in packed byte order: byte 2 carries QR..RD, byte 3
// carries RA/AD/CD and the RCode.
const (
	flagQRByte = 0x80
	flagAAByte = 0x04
	flagTCByte = 0x02
	flagRDByte = 0x01
)

// ServeWireFast attempts to answer the raw query pkt from the response
// cache, appending the reply to dst. It reports false (dst unchanged in
// content) when the packet is off the fast path or the cache misses, in
// which case the caller must take ServeWireFull. Steady-state hits do not
// allocate.
func (s *Sharded) ServeWireFast(dst, pkt []byte, sc *WireScratch) ([]byte, bool) {
	if s.cache == nil {
		return dst, false
	}
	v, nameBuf, err := dnswire.ParseQueryView(pkt, sc.name)
	sc.name = nameBuf
	if err != nil {
		return dst, false
	}
	edns := ednsNone
	if v.HasEDNS {
		if v.DNSSECOK {
			edns = ednsDO
		} else {
			edns = ednsPlain
		}
	}
	sc.key = respKey(sc.key, v.Name, v.Type, edns)
	e := s.cache.lookup(sc.key)
	if e == nil {
		return dst, false
	}
	if len(e.wire) > v.MaxPayload() {
		return appendTruncated(dst, &v, e), true
	}
	n := len(dst)
	dst = append(dst, e.wire...)
	binary.BigEndian.PutUint16(dst[n:], v.ID)
	if v.RecursionDesired {
		dst[n+2] |= flagRDByte
	}
	return dst, true
}

// appendTruncated renders the TC response for an oversize cached entry
// from scratch: header, the question, and — when the client sent EDNS —
// the responder OPT, byte-identical to what the slow path's
// Reply/Pack sequence produces (so cached and uncached truncations agree).
func appendTruncated(dst []byte, v *dnswire.QueryView, e *respEntry) []byte {
	dst = binary.BigEndian.AppendUint16(dst, v.ID)
	b2 := byte(flagQRByte) | e.wire[2]&flagAAByte | flagTCByte
	if v.RecursionDesired {
		b2 |= flagRDByte
	}
	dst = append(dst, b2, e.wire[3]&0x0f) // RA/AD/CD clear, RCode preserved
	ar := byte(0)
	if v.HasEDNS {
		ar = 1
	}
	dst = append(dst, 0, 1, 0, 0, 0, 0, 0, ar)
	dst = appendWireName(dst, v.Name)
	dst = binary.BigEndian.AppendUint16(dst, uint16(v.Type))
	dst = binary.BigEndian.AppendUint16(dst, uint16(v.Class))
	if v.HasEDNS {
		dst = append(dst, 0, 0, byte(dnswire.TypeOPT)) // root owner, type 41
		dst = binary.BigEndian.AppendUint16(dst, dnswire.ReplyUDPPayload)
		do := byte(0)
		if v.DNSSECOK {
			do = 0x80
		}
		dst = append(dst, 0, 0, do, 0, 0, 0) // TTL (ext-RCode/version/flags), RDLEN 0
	}
	return dst
}

// appendWireName encodes a canonical name (no trailing dot) as
// uncompressed wire labels.
func appendWireName(dst []byte, name []byte) []byte {
	for len(name) > 0 {
		i := bytes.IndexByte(name, '.')
		label := name
		if i >= 0 {
			label, name = name[:i], name[i+1:]
		} else {
			name = nil
		}
		dst = append(dst, byte(len(label)))
		dst = append(dst, label...)
	}
	return append(dst, 0)
}

// ServeWireFull serves a raw packet through the full parse/render path,
// appending the response to dst (which must be empty, so packing starts at
// message offset 0) and filling the cache when the response is cacheable.
// It returns nil for packets that must be dropped (malformed, unpackable
// response). udp enables payload-size truncation.
func (s *Sharded) ServeWireFull(dst, pkt []byte, sc *WireScratch, udp bool) []byte {
	q := &sc.q
	if err := q.Unpack(pkt); err != nil {
		return nil
	}
	// Pin the publish generation before consulting the zone set, and the
	// zone generation before rendering: the cache fill below is discarded
	// unless both are even and unmoved at insert time, which makes a
	// response rendered from mid-mutation or superseded state uncacheable.
	pg := s.pubGen.Load()
	resp := q.Reply()
	var z *zone.Zone
	var zg uint64
	if len(q.Questions) != 1 || q.OpCode != dnswire.OpCodeQuery {
		resp.RCode = dnswire.RCodeNotImplemented
	} else {
		qname := dnswire.CanonicalName(q.Questions[0].Name)
		if z = s.findZone(qname); z == nil {
			resp.RCode = dnswire.RCodeRefused
		} else {
			zg = z.Generation()
			answerInZone(resp, q, qname, z)
		}
	}
	wire, err := resp.AppendPack(sc.pack[:0])
	if err != nil {
		return nil
	}
	sc.pack = wire
	// The query's OPT decides both the cache key and the size limit.
	edns, maxPayload := ednsNone, dnswire.MaxUDPPayload
	if e := q.EDNS(); e != nil {
		edns, maxPayload = ednsPlain, int(e.UDPSize)
		if e.DNSSECOK {
			edns = ednsDO
		}
	}
	// Fill the cache. Only zone-derived INET responses are cacheable:
	// REFUSED/NOTIMP have no invalidation source, and non-INET classes
	// would collide with the INET key space.
	if s.cache != nil && z != nil && q.Questions[0].Class == dnswire.ClassINET {
		sc.name = append(sc.name[:0], q.Questions[0].Name...)
		sc.key = respKey(sc.key, sc.name, q.Questions[0].Type, edns)
		zz, zgPin, pgPin := z, zg, pg
		s.cache.insert(sc.key, wire, z.Origin, respDependsOnApex(resp, z.Origin), func() bool {
			return pgPin&1 == 0 && zgPin&1 == 0 &&
				s.pubGen.Load() == pgPin && zz.Generation() == zgPin
		})
	}
	if udp && len(wire) > maxPayload {
		tr := q.Reply()
		tr.RCode = resp.RCode
		tr.Truncated = true
		tr.Authoritative = resp.Authoritative
		out, err := tr.AppendPack(dst)
		if err != nil {
			return nil
		}
		return out
	}
	return append(dst, wire...)
}

// respDependsOnApex reports whether the response embeds records owned by
// the zone apex (the SOA in negative answers, apex RRset answers). Such
// entries — and only such entries — are flushed by apex-scoped events like
// BumpSerial.
func respDependsOnApex(resp *dnswire.Message, origin string) bool {
	for _, sec := range [][]*dnswire.RR{resp.Answers, resp.Authority, resp.Additional} {
		for _, rr := range sec {
			if rr.Type != dnswire.TypeOPT && rr.Name == origin {
				return true
			}
		}
	}
	return false
}
