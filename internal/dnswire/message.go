package dnswire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"strings"
)

// Header is the fixed 12-octet DNS message header (RFC 1035 section 4.1.1)
// with the AD and CD bits of RFC 4035.
type Header struct {
	ID                 uint16
	Response           bool // QR
	OpCode             OpCode
	Authoritative      bool // AA
	Truncated          bool // TC
	RecursionDesired   bool // RD
	RecursionAvailable bool // RA
	AuthenticData      bool // AD
	CheckingDisabled   bool // CD
	RCode              RCode
}

func (h *Header) pack(buf []byte, counts [4]uint16) []byte {
	buf = binary.BigEndian.AppendUint16(buf, h.ID)
	var flags uint16
	if h.Response {
		flags |= 1 << 15
	}
	flags |= uint16(h.OpCode&0xf) << 11
	if h.Authoritative {
		flags |= 1 << 10
	}
	if h.Truncated {
		flags |= 1 << 9
	}
	if h.RecursionDesired {
		flags |= 1 << 8
	}
	if h.RecursionAvailable {
		flags |= 1 << 7
	}
	if h.AuthenticData {
		flags |= 1 << 5
	}
	if h.CheckingDisabled {
		flags |= 1 << 4
	}
	flags |= uint16(h.RCode & 0xf)
	buf = binary.BigEndian.AppendUint16(buf, flags)
	for _, c := range counts {
		buf = binary.BigEndian.AppendUint16(buf, c)
	}
	return buf
}

func (h *Header) unpack(b []byte) (counts [4]uint16, err error) {
	if len(b) < 12 {
		return counts, ErrTruncatedMessage
	}
	h.ID = binary.BigEndian.Uint16(b)
	flags := binary.BigEndian.Uint16(b[2:])
	h.Response = flags&(1<<15) != 0
	h.OpCode = OpCode(flags >> 11 & 0xf)
	h.Authoritative = flags&(1<<10) != 0
	h.Truncated = flags&(1<<9) != 0
	h.RecursionDesired = flags&(1<<8) != 0
	h.RecursionAvailable = flags&(1<<7) != 0
	h.AuthenticData = flags&(1<<5) != 0
	h.CheckingDisabled = flags&(1<<4) != 0
	h.RCode = RCode(flags & 0xf)
	for i := range counts {
		counts[i] = binary.BigEndian.Uint16(b[4+2*i:])
	}
	return counts, nil
}

// Question is a query name/type/class triple.
type Question struct {
	Name  string
	Type  Type
	Class Class
}

// String renders the question in dig-like form.
func (q Question) String() string {
	return fmt.Sprintf("%s %s %s", presentName(q.Name), q.Class, q.Type)
}

// RR is one resource record: shared header plus typed RDATA.
type RR struct {
	Name  string
	Type  Type
	Class Class
	TTL   uint32
	Data  RData
}

// NewRR builds an RR whose type code is taken from the payload.
func NewRR(name string, ttl uint32, data RData) *RR {
	return &RR{Name: CanonicalName(name), Type: data.Type(), Class: ClassINET, TTL: ttl, Data: data}
}

// String renders the record in zone-file form.
func (rr *RR) String() string {
	return fmt.Sprintf("%s\t%d\t%s\t%s\t%s",
		presentName(rr.Name), rr.TTL, rr.Class, rr.Type, rr.Data.String())
}

// pack appends the full record. Owner names may be compressed; RDATA never
// is (see RData).
func (rr *RR) pack(buf []byte, cmp *compressor) ([]byte, error) {
	var err error
	if buf, err = appendName(buf, rr.Name, cmp); err != nil {
		return buf, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Type))
	buf = binary.BigEndian.AppendUint16(buf, uint16(rr.Class))
	buf = binary.BigEndian.AppendUint32(buf, rr.TTL)
	lenAt := len(buf)
	buf = append(buf, 0, 0)
	if buf, err = rr.Data.appendRData(buf); err != nil {
		return buf, err
	}
	rdlen := len(buf) - lenAt - 2
	if rdlen > 0xffff {
		return buf, errors.New("dnswire: rdata exceeds 65535 octets")
	}
	binary.BigEndian.PutUint16(buf[lenAt:], uint16(rdlen))
	return buf, nil
}

// CanonicalWire returns the record's RFC 4034 section 6 canonical wire
// form: uncompressed lowercase owner name followed by type, class, TTL and
// RDATA. Owner names are already stored lowercase, so no case mapping is
// needed here.
func (rr *RR) CanonicalWire() ([]byte, error) {
	return rr.pack(nil, nil)
}

func unpackRR(msg []byte, off int) (*RR, int, error) {
	name, off, err := unpackName(msg, off)
	if err != nil {
		return nil, 0, err
	}
	if off+10 > len(msg) {
		return nil, 0, ErrTruncatedMessage
	}
	rr := &RR{
		Name:  name,
		Type:  Type(binary.BigEndian.Uint16(msg[off:])),
		Class: Class(binary.BigEndian.Uint16(msg[off+2:])),
		TTL:   binary.BigEndian.Uint32(msg[off+4:]),
	}
	rdlen := int(binary.BigEndian.Uint16(msg[off+8:]))
	off += 10
	if rr.Data, err = unpackRData(rr.Type, msg, off, rdlen); err != nil {
		return nil, 0, err
	}
	return rr, off + rdlen, nil
}

// Message is a complete DNS message.
type Message struct {
	Header
	Questions  []Question
	Answers    []*RR
	Authority  []*RR
	Additional []*RR
}

// NewQuery builds a standard query for one name/type with the given ID.
func NewQuery(id uint16, name string, t Type) *Message {
	return &Message{
		Header:    Header{ID: id, RecursionDesired: false},
		Questions: []Question{{Name: CanonicalName(name), Type: t, Class: ClassINET}},
	}
}

// Pack encodes the message into wire format.
func (m *Message) Pack() ([]byte, error) {
	return m.AppendPack(make([]byte, 0, 512))
}

// AppendPack encodes the message, appending to buf.
func (m *Message) AppendPack(buf []byte) ([]byte, error) {
	if len(m.Questions) > 0xffff || len(m.Answers) > 0xffff ||
		len(m.Authority) > 0xffff || len(m.Additional) > 0xffff {
		return nil, errors.New("dnswire: section too large")
	}
	counts := [4]uint16{
		uint16(len(m.Questions)), uint16(len(m.Answers)),
		uint16(len(m.Authority)), uint16(len(m.Additional)),
	}
	start := len(buf)
	buf = m.Header.pack(buf, counts)
	// Compression offsets are relative to the start of the DNS message, so
	// packing must begin at offset 0 of the working buffer for pointer
	// arithmetic to hold. Enforce rather than silently corrupt.
	var offsets compressor
	cmp := &offsets
	if start != 0 {
		cmp = nil
	}
	var err error
	for _, q := range m.Questions {
		if buf, err = appendName(buf, q.Name, cmp); err != nil {
			return nil, err
		}
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Type))
		buf = binary.BigEndian.AppendUint16(buf, uint16(q.Class))
	}
	for _, sec := range [][]*RR{m.Answers, m.Authority, m.Additional} {
		for _, rr := range sec {
			if buf, err = rr.pack(buf, cmp); err != nil {
				return nil, err
			}
		}
	}
	return buf, nil
}

// Unpack decodes a wire-format message.
func (m *Message) Unpack(b []byte) error {
	counts, err := m.Header.unpack(b)
	if err != nil {
		return err
	}
	off := 12
	m.Questions = m.Questions[:0]
	for i := 0; i < int(counts[0]); i++ {
		name, n, err := unpackName(b, off)
		if err != nil {
			return err
		}
		if n+4 > len(b) {
			return ErrTruncatedMessage
		}
		m.Questions = append(m.Questions, Question{
			Name:  name,
			Type:  Type(binary.BigEndian.Uint16(b[n:])),
			Class: Class(binary.BigEndian.Uint16(b[n+2:])),
		})
		off = n + 4
	}
	for i, sec := range []*[]*RR{&m.Answers, &m.Authority, &m.Additional} {
		*sec = (*sec)[:0]
		for j := 0; j < int(counts[i+1]); j++ {
			rr, n, err := unpackRR(b, off)
			if err != nil {
				return err
			}
			*sec = append(*sec, rr)
			off = n
		}
	}
	if off != len(b) {
		return fmt.Errorf("dnswire: %d trailing octets after message", len(b)-off)
	}
	return nil
}

// Reply constructs a response skeleton for this query: same ID and question,
// QR set, and — when the query carried EDNS0 — a responder OPT with the DO
// bit mirrored. The responder advertises its own fixed ReplyUDPPayload
// rather than echoing the client's size, so the response bytes do not vary
// with the client's advertisement (which is what lets a wire-response cache
// store one rendering per question).
func (m *Message) Reply() *Message {
	r := &Message{
		Header: Header{
			ID:               m.ID,
			Response:         true,
			OpCode:           m.OpCode,
			RecursionDesired: m.RecursionDesired,
		},
		Questions: append([]Question(nil), m.Questions...),
	}
	if e := m.EDNS(); e != nil {
		r.SetEDNS(ReplyUDPPayload, e.DNSSECOK)
	}
	return r
}

// String renders the whole message in dig-like presentation form.
func (m *Message) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, ";; opcode: %d, status: %s, id: %d\n", m.OpCode, m.RCode, m.ID)
	fmt.Fprintf(&sb, ";; flags:")
	for _, f := range []struct {
		on   bool
		name string
	}{
		{m.Response, "qr"}, {m.Authoritative, "aa"}, {m.Truncated, "tc"},
		{m.RecursionDesired, "rd"}, {m.RecursionAvailable, "ra"},
		{m.AuthenticData, "ad"}, {m.CheckingDisabled, "cd"},
	} {
		if f.on {
			sb.WriteByte(' ')
			sb.WriteString(f.name)
		}
	}
	sb.WriteByte('\n')
	if len(m.Questions) > 0 {
		sb.WriteString(";; QUESTION SECTION:\n")
		for _, q := range m.Questions {
			fmt.Fprintf(&sb, ";%s\n", q)
		}
	}
	for _, sec := range []struct {
		name string
		rrs  []*RR
	}{{"ANSWER", m.Answers}, {"AUTHORITY", m.Authority}, {"ADDITIONAL", m.Additional}} {
		if len(sec.rrs) == 0 {
			continue
		}
		fmt.Fprintf(&sb, ";; %s SECTION:\n", sec.name)
		for _, rr := range sec.rrs {
			if rr.Type == TypeOPT {
				continue
			}
			sb.WriteString(rr.String())
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}
