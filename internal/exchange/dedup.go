package exchange

import (
	"context"
	"sync"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnswire"
)

// Dedup coalesces identical in-flight queries: while one exchange for
// (server, qname, qtype, DO) is outstanding, further exchanges for the
// same key wait for its result instead of issuing their own — the
// singleflight discipline resolver fleets use to keep a thundering herd of
// identical questions from multiplying upstream load. Each caller receives
// the shared response re-addressed to its own message ID.
//
// Queries that are not simple single-question messages pass through
// unconditionally.
type Dedup struct {
	inner Exchanger

	mu       sync.Mutex
	inflight map[key]*flight

	hits   atomic.Int64 // exchanges answered by piggybacking on a flight
	misses atomic.Int64 // exchanges that had to lead their own flight
}

// flight is one in-progress exchange and its eventual shared outcome.
type flight struct {
	done chan struct{}
	resp *dnswire.Message
	err  error
}

// NewDedup creates the dedup middleware over inner.
func NewDedup(inner Exchanger) *Dedup {
	return &Dedup{inner: inner, inflight: make(map[key]*flight)}
}

// counters snapshots the exchanges served by joining an existing flight
// (each hit is one upstream exchange avoided) and those that led their own.
func (d *Dedup) counters() DedupCounters {
	return DedupCounters{Hits: d.hits.Load(), Misses: d.misses.Load()}
}

// Exchange implements Exchanger with in-flight coalescing.
func (d *Dedup) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	k, ok := queryKey(server, q)
	if !ok {
		return d.inner.Exchange(ctx, server, q)
	}
	d.mu.Lock()
	if f, exists := d.inflight[k]; exists {
		d.mu.Unlock()
		d.hits.Add(1)
		select {
		case <-f.done:
		case <-ctx.Done():
			// The follower's own context died first; the leader's flight
			// continues for everyone else.
			return nil, ctx.Err()
		}
		if f.err != nil {
			return nil, f.err
		}
		return reply(f.resp, q), nil
	}
	f := &flight{done: make(chan struct{})}
	d.inflight[k] = f
	d.mu.Unlock()
	d.misses.Add(1)

	f.resp, f.err = d.inner.Exchange(ctx, server, q)
	d.mu.Lock()
	delete(d.inflight, k)
	d.mu.Unlock()
	close(f.done)
	if f.err != nil {
		return nil, f.err
	}
	return reply(f.resp, q), nil
}
