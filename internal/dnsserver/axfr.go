package dnsserver

import (
	"context"
	"errors"
	"fmt"
	"net"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// AXFR zone transfer (RFC 5936). The paper's dataset is built from TLD zone
// files obtained under agreement with the zone operators; AXFR is the
// protocol that moves them. The server side streams a zone SOA-first and
// SOA-last over TCP; the client side collects a full zone and hands the
// scan engine its target list.

// TypeAXFR is the AXFR query type (252).
const TypeAXFR dnswire.Type = 252

// ErrAXFRRefused reports a denied or malformed transfer.
var ErrAXFRRefused = errors.New("dnsserver: AXFR refused")

// AXFRAllowed is the policy hook deciding which zones may be transferred.
// TLD zone files are access-controlled in reality (the paper's footnote 2
// notes the .com/.net/.org/.nl files are under agreement while .se is open
// data); the default denies everything.
type AXFRAllowed func(zoneOrigin string) bool

// EnableAXFR turns on zone transfers for this authoritative server, gated
// by the policy.
func (a *Authoritative) EnableAXFR(policy AXFRAllowed) {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.axfr = policy
}

// axfrMessages builds the transfer message sequence for a zone: the SOA,
// every other record, and the SOA again, split into messages that respect
// TCP message size limits.
func axfrMessages(q *dnswire.Message, z *zone.Zone) ([]*dnswire.Message, error) {
	soa := z.SOA()
	if soa == nil {
		return nil, fmt.Errorf("%w: zone %q has no SOA", ErrAXFRRefused, z.Origin)
	}
	var rrs []*dnswire.RR
	rrs = append(rrs, soa)
	z.RRSets(func(name string, t dnswire.Type, set []*dnswire.RR) {
		for _, rr := range set {
			if rr == soa || (name == z.Origin && t == dnswire.TypeSOA) {
				continue
			}
			rrs = append(rrs, rr)
		}
	})
	rrs = append(rrs, soa)

	// Chunk into messages of at most ~16k wire octets each.
	const chunkBudget = 16 * 1024
	var msgs []*dnswire.Message
	cur := q.Reply()
	cur.Authoritative = true
	size := 0
	flush := func() {
		if len(cur.Answers) > 0 {
			msgs = append(msgs, cur)
			cur = q.Reply()
			cur.Authoritative = true
			size = 0
		}
	}
	for _, rr := range rrs {
		wire, err := rr.CanonicalWire()
		if err != nil {
			return nil, err
		}
		if size+len(wire) > chunkBudget {
			flush()
		}
		cur.Answers = append(cur.Answers, rr)
		size += len(wire)
	}
	flush()
	return msgs, nil
}

// serveAXFR handles an AXFR query on an established TCP connection,
// returning true if it consumed msg. It peeks at the question through the
// lazy parser, so only a plain query (one INET question, at most an OPT
// beside it) can ask for a transfer; anything else is answered as an
// ordinary query of type 252.
func (s *Server) serveAXFR(conn net.Conn, msg []byte) bool {
	v, _, err := dnswire.ParseQueryView(msg, nil)
	if err != nil || v.Type != TypeAXFR {
		return false
	}
	var q dnswire.Message
	if err := q.Unpack(msg); err != nil {
		return false
	}
	// REFUSED unless the handler hosts the zone and its policy allows.
	refused := q.Reply()
	refused.RCode = dnswire.RCodeRefused
	msgs := []*dnswire.Message{refused}
	if auth, ok := s.Handler.(*Authoritative); ok {
		origin := string(v.Name)
		auth.mu.RLock()
		policy := auth.axfr
		auth.mu.RUnlock()
		if policy != nil && policy(origin) {
			if z := auth.Zone(origin); z != nil {
				if transfer, err := axfrMessages(&q, z); err == nil {
					msgs = transfer
				}
			}
		}
	}
	for _, m := range msgs {
		out, err := m.Pack()
		if err != nil {
			return true
		}
		if err := writeTCPMessage(conn, out); err != nil {
			return true
		}
	}
	return true
}

// axfrTimeout bounds a whole transfer; a shorter ctx deadline wins.
const axfrTimeout = 30 * time.Second

// AXFRClient pulls whole zones over TCP.
type AXFRClient struct{}

// Transfer requests the zone rooted at origin from server and rebuilds it.
func (c *AXFRClient) Transfer(ctx context.Context, server, origin string) (*zone.Zone, error) {
	d := net.Dialer{Timeout: axfrTimeout}
	conn, err := d.DialContext(ctx, "tcp", server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(axfrTimeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	conn.SetDeadline(deadline)

	q := dnswire.NewQuery(uint16(time.Now().UnixNano()), origin, TypeAXFR)
	out, err := q.Pack()
	if err != nil {
		return nil, err
	}
	if err := writeTCPMessage(conn, out); err != nil {
		return nil, err
	}

	z := zone.New(origin)
	soaSeen := 0
	for soaSeen < 2 {
		raw, err := readTCPMessage(conn)
		if err != nil {
			return nil, fmt.Errorf("dnsserver: AXFR read: %w", err)
		}
		var m dnswire.Message
		if err := m.Unpack(raw); err != nil {
			return nil, err
		}
		if m.RCode != dnswire.RCodeSuccess {
			return nil, fmt.Errorf("%w: %s", ErrAXFRRefused, m.RCode)
		}
		if len(m.Answers) == 0 {
			return nil, fmt.Errorf("%w: empty transfer message", ErrAXFRRefused)
		}
		for _, rr := range m.Answers {
			if rr.Type == dnswire.TypeSOA && rr.Name == z.Origin {
				soaSeen++
				if soaSeen == 2 {
					break
				}
			}
			if err := z.Add(rr); err != nil {
				return nil, err
			}
		}
	}
	return z, nil
}
