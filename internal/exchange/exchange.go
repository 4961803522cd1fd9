// Package exchange owns the canonical DNS query path of the module: the
// Exchanger interface every transport implements, and a composable
// middleware stack — Dedup (singleflight on identical in-flight queries),
// Cache (a message cache of positive and NXDOMAIN answers, held until
// flushed), Retry (bounded per-query retries), and Tap (transport-level
// exchange accounting) — assembled in one declared order by Build.
//
// The paper's longitudinal half (section 4.1) issues millions of
// NS/DS/DNSKEY/RRSIG queries per simulated day; real collector fleets get
// their throughput from exactly this machinery — query dedup and referral
// caching.
//
// The stack composes outermost to innermost as
//
//	Cache → Dedup → Retry → Tap → (extra middleware, e.g. faultnet) → transport
//
// so a cache hit costs nothing downstream, duplicate in-flight queries
// collapse before they spend retries, and the Tap counts every attempt the
// retry budget spends, whether a fault injector or the transport ends it.
package exchange

import (
	"context"
	"errors"

	"securepki.org/registrarsec/internal/dnswire"
)

// Exchanger issues one DNS query to a named server and returns the
// response. It is the seam between every consumer and the transport: the
// production implementation speaks UDP/TCP, the simulation implementation
// dispatches in memory, and the middlewares in this package compose around
// either.
type Exchanger interface {
	Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error)
}

// Func adapts a function to the Exchanger interface.
type Func func(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error)

// Exchange implements Exchanger.
func (f Func) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	return f(ctx, server, q)
}

// Middleware wraps an Exchanger with additional behaviour.
type Middleware func(Exchanger) Exchanger

// ErrNoRoute reports an exchange to an address no transport can reach (an
// unregistered in-memory server, a permanently unreachable host). It is a
// permanent condition: the retry layer refuses to spend attempts on it.
var ErrNoRoute = errors.New("exchange: no route to server")

// key is the identity of one logical query: everything that determines the
// response apart from the message ID. Dedup and Cache share it.
type key struct {
	server string
	qname  string
	qtype  dnswire.Type
	do     bool
}

// queryKey derives the dedup/cache key for (server, q); ok is false for
// messages that are not simple single-question queries (those pass through
// uncoalesced and uncached).
func queryKey(server string, q *dnswire.Message) (key, bool) {
	if len(q.Questions) != 1 {
		return key{}, false
	}
	return key{
		server: server,
		qname:  q.Questions[0].Name,
		qtype:  q.Questions[0].Type,
		do:     q.DNSSECOK(),
	}, true
}

// reply returns a shallow copy of a shared response re-addressed to query
// q: same sections (treated as read-only by every consumer), the caller's
// message ID. Shared responses must never be mutated in place — two
// callers with different query IDs may hold them concurrently.
func reply(m *dnswire.Message, q *dnswire.Message) *dnswire.Message {
	cp := *m
	cp.ID = q.ID
	return &cp
}
