package exchange

import (
	"context"
	"fmt"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnswire"
)

// Tap is the innermost middleware: a pass-through that counts what
// actually reaches the transport. Because it sits below cache, dedup and
// retry, its Exchanges figure is the ground truth those layers are judged
// against — the benchmark's "≥2x fewer transport-level exchanges" claim is
// measured here.
type Tap struct {
	inner Exchanger

	exchanges atomic.Int64
	errors    atomic.Int64
}

// NewTap creates the accounting middleware over inner.
func NewTap(inner Exchanger) *Tap {
	return &Tap{inner: inner}
}

// counters snapshots the exchanges that reached the transport and those
// that returned an error.
func (t *Tap) counters() TransportCounters {
	return TransportCounters{Exchanges: t.exchanges.Load(), Errors: t.errors.Load()}
}

// Exchange implements Exchanger with transport accounting.
func (t *Tap) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	t.exchanges.Add(1)
	resp, err := t.inner.Exchange(ctx, server, q)
	if err != nil {
		t.errors.Add(1)
	}
	return resp, err
}

// TransportCounters is the Tap's cumulative accounting.
type TransportCounters struct {
	Exchanges int64 `json:"exchanges"`
	Errors    int64 `json:"errors"`
}

// CacheCounters is the Cache layer's cumulative accounting.
type CacheCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
	Stores int64 `json:"stores"`
}

// DedupCounters is the Dedup layer's cumulative accounting.
type DedupCounters struct {
	Hits   int64 `json:"hits"`
	Misses int64 `json:"misses"`
}

// RetryCounters is the Retry layer's cumulative accounting.
type RetryCounters struct {
	Retries  int64 `json:"retries"`
	Failures int64 `json:"failures"`
}

// Counters is a point-in-time snapshot of every layer's accounting.
// Layers absent from the stack report zeros. The struct is plain data:
// JSON-serializable for benchmark artifacts and subtractable for
// per-sweep deltas.
type Counters struct {
	Transport TransportCounters `json:"transport"`
	Cache     CacheCounters     `json:"cache"`
	Dedup     DedupCounters     `json:"dedup"`
	Retry     RetryCounters     `json:"retry"`
}

// Sub returns the per-field difference c - prev, for interval accounting
// between two snapshots of the same stack.
func (c Counters) Sub(prev Counters) Counters {
	return Counters{
		Transport: TransportCounters{
			Exchanges: c.Transport.Exchanges - prev.Transport.Exchanges,
			Errors:    c.Transport.Errors - prev.Transport.Errors,
		},
		Cache: CacheCounters{
			Hits:   c.Cache.Hits - prev.Cache.Hits,
			Misses: c.Cache.Misses - prev.Cache.Misses,
			Stores: c.Cache.Stores - prev.Cache.Stores,
		},
		Dedup: DedupCounters{
			Hits:   c.Dedup.Hits - prev.Dedup.Hits,
			Misses: c.Dedup.Misses - prev.Dedup.Misses,
		},
		Retry: RetryCounters{
			Retries:  c.Retry.Retries - prev.Retry.Retries,
			Failures: c.Retry.Failures - prev.Retry.Failures,
		},
	}
}

// Add returns the per-field sum c + o, for aggregating per-shard interval
// snapshots into one report.
func (c Counters) Add(o Counters) Counters {
	return Counters{
		Transport: TransportCounters{
			Exchanges: c.Transport.Exchanges + o.Transport.Exchanges,
			Errors:    c.Transport.Errors + o.Transport.Errors,
		},
		Cache: CacheCounters{
			Hits:   c.Cache.Hits + o.Cache.Hits,
			Misses: c.Cache.Misses + o.Cache.Misses,
			Stores: c.Cache.Stores + o.Cache.Stores,
		},
		Dedup: DedupCounters{
			Hits:   c.Dedup.Hits + o.Dedup.Hits,
			Misses: c.Dedup.Misses + o.Dedup.Misses,
		},
		Retry: RetryCounters{
			Retries:  c.Retry.Retries + o.Retry.Retries,
			Failures: c.Retry.Failures + o.Retry.Failures,
		},
	}
}

// String renders the non-trivial layers compactly for health reports.
func (c Counters) String() string {
	s := fmt.Sprintf("transport=%d (%d errors)", c.Transport.Exchanges, c.Transport.Errors)
	if c.Cache.Hits+c.Cache.Misses > 0 {
		s += fmt.Sprintf(", cache=%d/%d hit", c.Cache.Hits, c.Cache.Hits+c.Cache.Misses)
	}
	if c.Dedup.Hits > 0 {
		s += fmt.Sprintf(", dedup=%d coalesced", c.Dedup.Hits)
	}
	if c.Retry.Retries > 0 {
		s += fmt.Sprintf(", retries=%d (%d exhausted)", c.Retry.Retries, c.Retry.Failures)
	}
	return s
}
