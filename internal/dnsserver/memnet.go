package dnsserver

import (
	"context"
	"fmt"
	"sync"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
)

// MemNet is an in-memory "network" of DNS servers keyed by address. It lets
// the ecosystem simulation host one logical server per DNS operator —
// tens of thousands of them — without consuming sockets, while exercising
// the same Handler code the real transport runs.
//
// With Strict set, Exchange packs the query and answers it through
// serveWire, as the TCP transport does, so wire-format bugs cannot hide
// behind the in-memory shortcut.
type MemNet struct {
	// Strict forces a full wire-format round trip on every exchange.
	Strict bool

	mu       sync.RWMutex
	handlers map[string]Handler
}

// NewMemNet creates an empty in-memory network.
func NewMemNet() *MemNet {
	return &MemNet{handlers: make(map[string]Handler)}
}

// Register binds a handler to an address, replacing any previous binding.
func (m *MemNet) Register(addr string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.handlers[addr] = h
}

// Lookup returns the handler bound to addr, or nil.
func (m *MemNet) Lookup(addr string) Handler {
	m.mu.RLock()
	defer m.mu.RUnlock()
	return m.handlers[addr]
}

// Exchange implements exchange.Exchanger by direct dispatch to the registered
// handler.
func (m *MemNet) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	h := m.Lookup(server)
	if h == nil {
		return nil, fmt.Errorf("%w: %s", exchange.ErrNoRoute, server)
	}
	if !m.Strict {
		return h.ServeDNS(q), nil
	}
	wire, err := q.Pack()
	if err != nil {
		return nil, err
	}
	sc := scratchPool.Get().(*WireScratch)
	defer scratchPool.Put(sc)
	// A nil dst: the decoded response must not alias the pooled scratch.
	respWire, err := serveWire(h, nil, wire, sc, false)
	if err != nil {
		return nil, err
	}
	var out dnswire.Message
	if err := out.Unpack(respWire); err != nil {
		return nil, err
	}
	return &out, nil
}
