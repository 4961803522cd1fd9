package dnswire

import "encoding/binary"

// EDNS0 support (RFC 6891). The OPT pseudo-record overloads the RR header:
// CLASS carries the requestor's UDP payload size and the TTL carries the
// extended RCODE and flags, including the DO ("DNSSEC OK") bit that a
// resolver sets to request RRSIGs in responses (RFC 3225).

// EDNS captures the decoded fields of an OPT pseudo-record.
type EDNS struct {
	UDPSize  uint16
	DNSSECOK bool
	Version  uint8
}

// doBit is the DO flag position within the OPT TTL field.
const doBit = 1 << 15

// ReplyUDPPayload is the payload size a responder advertises in its own
// OPT record (RFC 6891 section 6.2.5 leaves the choice to each side).
const ReplyUDPPayload = 4096

// SetEDNS adds (or replaces) an OPT pseudo-record in the additional section
// advertising the given UDP payload size and DO bit.
func (m *Message) SetEDNS(udpSize uint16, dnssecOK bool) {
	if udpSize < MaxUDPPayload {
		udpSize = MaxUDPPayload
	}
	var ttl uint32
	if dnssecOK {
		ttl |= doBit
	}
	opt := &RR{
		Name:  "",
		Type:  TypeOPT,
		Class: Class(udpSize),
		TTL:   ttl,
		Data:  &Generic{T: TypeOPT},
	}
	for i, rr := range m.Additional {
		if rr.Type == TypeOPT {
			m.Additional[i] = opt
			return
		}
	}
	m.Additional = append(m.Additional, opt)
}

// AppendEDNSQuery appends to buf the wire form of NewQuery(id, name, t)
// after SetEDNS(udpSize, dnssecOK) — the bytes Pack gives — without
// building the Message: header, question and the OPT record.
func AppendEDNSQuery(buf []byte, id uint16, name string, t Type, udpSize uint16, dnssecOK bool) ([]byte, error) {
	if udpSize < MaxUDPPayload {
		udpSize = MaxUDPPayload
	}
	h := Header{ID: id}
	buf = h.pack(buf, [4]uint16{1, 0, 0, 1}) // one question, the OPT in additional
	buf, err := appendName(buf, CanonicalName(name), nil)
	if err != nil {
		return nil, err
	}
	buf = binary.BigEndian.AppendUint16(buf, uint16(t))
	buf = binary.BigEndian.AppendUint16(buf, uint16(ClassINET))
	buf = append(buf, 0) // OPT owner: the root
	buf = binary.BigEndian.AppendUint16(buf, uint16(TypeOPT))
	buf = binary.BigEndian.AppendUint16(buf, udpSize)
	var ttl uint32
	if dnssecOK {
		ttl = doBit
	}
	buf = binary.BigEndian.AppendUint32(buf, ttl)
	return append(buf, 0, 0), nil // RDLEN 0
}

// EDNS returns the decoded OPT record if the message carries one, else nil.
// The result is built after the loop, not in it, so that an inlined call
// whose result does not escape allocates nothing.
func (m *Message) EDNS() *EDNS {
	var opt *RR
	for _, rr := range m.Additional {
		if rr.Type == TypeOPT {
			opt = rr
			break
		}
	}
	if opt == nil {
		return nil
	}
	return &EDNS{
		UDPSize:  uint16(opt.Class),
		DNSSECOK: opt.TTL&doBit != 0,
		Version:  uint8(opt.TTL >> 16),
	}
}

// DNSSECOK reports whether the message requests DNSSEC records (DO bit set).
func (m *Message) DNSSECOK() bool {
	e := m.EDNS()
	return e != nil && e.DNSSECOK
}
