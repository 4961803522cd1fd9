package dnsserver

import (
	"encoding/binary"
	"errors"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// Wire-level serving: a packet is answered by two functions, whichever
// transport carried it. serveCached is the zero-alloc hit side (lazy parse
// → key → lock-free lookup → copy + patch ID/RD) and serveWire the slow
// side (parse → answer → pack → stamped cache fill → truncate), which
// every Handler has; ServeWireFast and ServeWireFull export them.

// WireScratch is per-worker reusable state for the wire paths. All slices
// grow once and are recycled: a miss an Authoritative answers builds its
// response in resp, reading the zone through reader, and allocates nothing
// of its own; q is reused across full parses.
type WireScratch struct {
	name   []byte
	key    []byte
	pack   []byte
	out    []byte
	q      dnswire.Message
	resp   dnswire.Message
	reader zone.Reader
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
		return appendTruncated(dst, &v, e.wire), true
	}
	n := len(dst)
	dst = append(dst, e.wire...)
	binary.BigEndian.PutUint16(dst[n:], v.ID)
	if v.RecursionDesired {
		dst[n+2] |= flagRDByte
	}
	return dst, true
}

// appendTruncated renders the TC form of the packed response wire to the
// query v describes: wire's header and question section, and — when the
// client sent EDNS — the responder OPT, as Reply would mirror it. Both sides
// call it, so cached and uncached truncations agree.
func appendTruncated(dst []byte, v *dnswire.QueryView, wire []byte) []byte {
	dst = binary.BigEndian.AppendUint16(dst, v.ID)
	b2 := wire[2]&^(flagTCByte|flagRDByte) | flagTCByte // QR, opcode and AA as rendered
	if v.RecursionDesired {
		b2 |= flagRDByte
	}
	dst = append(dst, b2, wire[3]&0x0f) // RA/AD/CD clear, RCode preserved
	ar := byte(0)
	if v.HasEDNS {
		ar = 1
	}
	dst = append(dst, wire[4], wire[5], 0, 0, 0, 0, 0, ar)
	dst = append(dst, wire[12:questionsEnd(wire)]...)
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

// questionsEnd is the offset just past the question section of a message
// this package packed.
func questionsEnd(wire []byte) int {
	off := 12
	for n := binary.BigEndian.Uint16(wire[4:]); n > 0; n-- {
		for wire[off] != 0 && wire[off]&0xc0 == 0 {
			off += 1 + int(wire[off])
		}
		if wire[off] != 0 {
			off++ // a compression pointer is two octets and ends the name
		}
		off += 1 + 4
	}
	return off
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

// serveWire is the slow side every transport shares: it parses pkt, has h
// answer it, packs the response into dst (which must be empty) and, over
// UDP, replaces a response larger than the client's payload limit by its TC
// form. An Authoritative parses with the hit side's parser and renders
// straight from its zones into sc — and, with a cache, fills it; the full
// Unpack and ServeDNS are for the packets that parser leaves to them and
// for any other Handler. An error means the packet gets no reply.
func serveWire(h Handler, dst, pkt []byte, sc *WireScratch, udp bool) ([]byte, error) {
	var (
		v    dnswire.QueryView
		resp *dnswire.Message
		z    *zone.Zone
		p    pin
		pg   uint64
	)
	a, lazy := h.(*Authoritative)
	if lazy {
		var err error
		v, sc.name, err = dnswire.ParseQueryView(pkt, sc.name)
		lazy = err == nil
	}
	if lazy {
		// Read the zone-set count before consulting the zone set, and (in
		// answer) the stamps before rendering: the fill below is not stored
		// if the count moved, and is stale from the first bump of a stamp.
		pg = a.pubGen.Load()
		resp = sc.replySkeleton(&v)
		z, p = a.answer(resp, &sc.reader, resp.Questions[0].Name, v.Type, v.DNSSECOK)
	} else {
		q := &sc.q
		if err := q.Unpack(pkt); err != nil {
			return nil, err
		}
		if resp = h.ServeDNS(q); resp == nil {
			return nil, errors.New("dnsserver: handler returned nil")
		}
		v = dnswire.QueryView{ID: q.ID, RecursionDesired: q.RecursionDesired}
		if e := q.EDNS(); e != nil {
			v.HasEDNS, v.DNSSECOK, v.UDPSize = true, e.DNSSECOK, e.UDPSize
		}
	}
	wire, err := resp.AppendPack(sc.pack[:0])
	if err != nil {
		return nil, err
	}
	sc.pack = wire
	switch {
	case z == nil || a.cache == nil:
	case a.pubGen.Load() != pg:
		a.cache.rejected.Add(1) // the zone chosen may no longer be the one that answers
	default:
		sc.key = respKey(sc.key, v.Name, v.Type, ednsState(v.HasEDNS, v.DNSSECOK))
		a.cache.insert(sc.key, wire, p, respDependsOnApex(resp, z.Origin))
	}
	if udp && len(wire) > v.MaxPayload() {
		return appendTruncated(dst, &v, wire), nil
	}
	return append(dst, wire...), nil
}

// replyOPT holds the responder OPT records Reply would build, without and
// with the DO bit: every response rendered in a WireScratch shares them.
var replyOPT, replyOPTDO = responderOPT(false), responderOPT(true)

func responderOPT(dnssecOK bool) *dnswire.RR {
	var m dnswire.Message
	m.SetEDNS(dnswire.ReplyUDPPayload, dnssecOK)
	return m.Additional[0]
}

// replySkeleton resets the scratch response to what Reply gives for the
// query v describes: ID, QR, RD, the question and the responder OPT.
func (sc *WireScratch) replySkeleton(v *dnswire.QueryView) *dnswire.Message {
	resp := &sc.resp
	resp.Header = dnswire.Header{ID: v.ID, Response: true, RecursionDesired: v.RecursionDesired}
	resp.Questions = append(resp.Questions[:0], dnswire.Question{Name: string(v.Name), Type: v.Type, Class: v.Class})
	resp.Answers, resp.Authority, resp.Additional = resp.Answers[:0], resp.Authority[:0], resp.Additional[:0]
	switch {
	case v.DNSSECOK:
		resp.Additional = append(resp.Additional, replyOPTDO)
	case v.HasEDNS:
		resp.Additional = append(resp.Additional, replyOPT)
	}
	return resp
}

// respDependsOnApex reports whether the response answers for the zone apex
// or embeds records it owns (the SOA in negative answers). Such entries —
// and only such entries — depend on the apex stamp, which apex-scoped
// events like BumpSerial bump.
func respDependsOnApex(resp *dnswire.Message, origin string) bool {
	if resp.Questions[0].Name == origin {
		return true // a NODATA from a zone without SOA embeds no apex record
	}
	for _, sec := range [][]*dnswire.RR{resp.Answers, resp.Authority, resp.Additional} {
		for _, rr := range sec {
			if rr.Type != dnswire.TypeOPT && rr.Name == origin {
				return true
			}
		}
	}
	return false
}
