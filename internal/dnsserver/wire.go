package dnsserver

import (
	"bytes"
	"encoding/binary"
	"errors"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// Wire-level serving: a packet is answered by two functions, whichever
// transport carried it. serveCached is the zero-alloc hit side (lazy parse
// → key → lock-free lookup → copy + patch ID/RD) and serveWire the slow
// side (full parse → answer → pack → guarded cache fill → truncate), which
// every Handler has; ServeWireFast and ServeWireFull export them.

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

// ServeWireFast attempts to answer the raw UDP query pkt from the response
// cache, appending the reply to dst. It reports false (dst unchanged in
// content) when the packet is off the fast path or the cache misses, in
// which case the caller must take ServeWireFull. Steady-state hits do not
// allocate.
func (a *Authoritative) ServeWireFast(dst, pkt []byte, sc *WireScratch) ([]byte, bool) {
	return a.serveCached(dst, pkt, sc, true)
}

// serveCached is ServeWireFast for either transport: udp applies the
// client's payload limit, TCP has none.
func (a *Authoritative) serveCached(dst, pkt []byte, sc *WireScratch, udp bool) ([]byte, bool) {
	if a.cache == nil {
		return dst, false
	}
	v, nameBuf, err := dnswire.ParseQueryView(pkt, sc.name)
	sc.name = nameBuf
	if err != nil {
		return dst, false
	}
	sc.key = respKey(sc.key, v.Name, v.Type, ednsState(v.HasEDNS, v.DNSSECOK))
	e := a.cache.lookup(sc.key)
	if e == nil {
		return dst, false
	}
	if udp && len(e.wire) > v.MaxPayload() {
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
func (a *Authoritative) ServeWireFull(dst, pkt []byte, sc *WireScratch, udp bool) []byte {
	out, _ := serveWire(a, dst, pkt, sc, udp)
	return out
}

// serveWire is the slow side every transport shares: it parses pkt in full,
// has h answer it, packs the response into dst (which must be empty) and,
// over UDP, replaces a response larger than the client's payload limit by
// its TC form. An Authoritative with a cache also fills it here. An error
// means the packet gets no reply.
func serveWire(h Handler, dst, pkt []byte, sc *WireScratch, udp bool) ([]byte, error) {
	q := &sc.q
	if err := q.Unpack(pkt); err != nil {
		return nil, err
	}
	var (
		resp   *dnswire.Message
		z      *zone.Zone
		pg, zg uint64
	)
	a, _ := h.(*Authoritative)
	if a != nil {
		// Pin the publish generation before consulting the zone set, and
		// (in answer) the zone generation before rendering: the cache fill
		// below is discarded unless both are even and unmoved at insert
		// time, which makes a response rendered from mid-mutation or
		// superseded state uncacheable.
		pg = a.pubGen.Load()
		resp, z, zg = a.answer(q)
	} else if resp = h.ServeDNS(q); resp == nil {
		return nil, errors.New("dnsserver: handler returned nil")
	}
	wire, err := resp.AppendPack(sc.pack[:0])
	if err != nil {
		return nil, err
	}
	sc.pack = wire
	if z != nil && a.cache != nil {
		a.fill(sc, q, resp, wire, z, pg, zg)
	}
	if udp && len(wire) > q.MaxPayload() {
		// Header, question and the responder OPT (when the query carried
		// EDNS — Reply mirrors it), TC set.
		tr := q.Reply()
		tr.RCode = resp.RCode
		tr.Truncated = true
		tr.Authoritative = resp.Authoritative
		return tr.AppendPack(dst)
	}
	return append(dst, wire...), nil
}

// fill offers the packed response to q, rendered from z, to the cache
// under the pins taken before it was rendered. Only INET responses are
// cacheable: other classes would collide with the INET key space.
func (a *Authoritative) fill(sc *WireScratch, q, resp *dnswire.Message, wire []byte, z *zone.Zone, pg, zg uint64) {
	if q.Questions[0].Class != dnswire.ClassINET {
		return
	}
	e := q.EDNS()
	sc.name = append(sc.name[:0], q.Questions[0].Name...)
	sc.key = respKey(sc.key, sc.name, q.Questions[0].Type, ednsState(e != nil, e != nil && e.DNSSECOK))
	a.cache.insert(sc.key, wire, z.Origin, respDependsOnApex(resp, z.Origin), func() bool {
		return pg&1 == 0 && zg&1 == 0 &&
			a.pubGen.Load() == pg && z.Generation() == zg
	})
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
