// Package retry implements the bounded retry policy used by the resilient
// measurement path: exponential backoff with deterministic jitter, a
// per-query attempt budget, and deadline awareness. The OpenINTEL-style
// sweeps the paper relies on (section 4.1) run against infrastructure that
// times out, drops packets, and serves transient SERVFAILs; without a retry
// discipline every such event silently shrinks the dataset.
//
// The policy is deliberately deterministic: jitter is drawn from a seeded
// generator so two runs of the same sweep schedule identical delays, which
// keeps fault-injection tests exactly reproducible.
package retry

import (
	"context"
	"math/rand"
	"sync"
	"time"
)

// Policy bounds the attempts made for one query.
type Policy struct {
	// MaxAttempts is the total attempt budget per query, first try
	// included (default 3).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 10ms);
	// each further retry doubles it up to MaxDelay.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 500ms).
	MaxDelay time.Duration
	// JitterFrac scatters each delay uniformly in
	// [delay*(1-JitterFrac), delay*(1+JitterFrac)] (default 0.5).
	JitterFrac float64
}

// jitterSeed seeds every Doer's jitter sequence, so the same policy
// always draws the same delays.
const jitterSeed = 1

// Default returns the measurement path's standard policy: three attempts,
// 10ms base backoff doubling to a 500ms cap, ±50% jitter.
func Default() Policy {
	return Policy{MaxAttempts: 3, BaseDelay: 10 * time.Millisecond, MaxDelay: 500 * time.Millisecond, JitterFrac: 0.5}
}

// withDefaults fills unset fields from Default.
func (p Policy) withDefaults() Policy {
	d := Default()
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = d.MaxAttempts
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = d.BaseDelay
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = d.MaxDelay
	}
	if p.JitterFrac < 0 {
		p.JitterFrac = 0
	}
	return p
}

// delay computes the backoff before retry number n (1-based), jittered.
func (p Policy) delay(n int, rng *rand.Rand) time.Duration {
	d := p.BaseDelay
	for i := 1; i < n; i++ {
		d *= 2
		if d >= p.MaxDelay {
			d = p.MaxDelay
			break
		}
	}
	if d > p.MaxDelay {
		d = p.MaxDelay
	}
	if p.JitterFrac > 0 {
		span := float64(d) * p.JitterFrac
		d = time.Duration(float64(d) - span + 2*span*rng.Float64())
		if d < 0 {
			d = 0
		}
	}
	return d
}

// Retryable decides whether an error is worth another attempt. A nil
// function retries everything except context cancellation.
type Retryable func(error) bool

// defaultRetryable retries any error except a dead context.
func defaultRetryable(err error) bool {
	return err != context.Canceled && err != context.DeadlineExceeded
}

// Doer runs functions under one policy with a shared deterministic jitter
// stream. It is safe for concurrent use.
type Doer struct {
	policy Policy

	mu  sync.Mutex
	rng *rand.Rand
}

// NewDoer creates a Doer for the policy (zero fields get defaults).
func NewDoer(p Policy) *Doer {
	p = p.withDefaults()
	return &Doer{policy: p, rng: rand.New(rand.NewSource(jitterSeed))}
}

// jittered draws the next delay for retry n from the shared stream.
func (d *Doer) jittered(n int) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.policy.delay(n, d.rng)
}

// Do runs fn (attempt is 0-based) until it succeeds, the budget is spent,
// the error is not retryable, or the context dies. Backoff sleeps are
// deadline-aware: if the remaining context time cannot cover the next
// delay, Do gives up immediately with the last error rather than sleeping
// into a guaranteed timeout.
func (d *Doer) Do(ctx context.Context, retryable Retryable, fn func(attempt int) error) error {
	if retryable == nil {
		retryable = defaultRetryable
	}
	var lastErr error
	for attempt := 0; attempt < d.policy.MaxAttempts; attempt++ {
		if err := ctx.Err(); err != nil {
			if lastErr != nil {
				return lastErr
			}
			return err
		}
		lastErr = fn(attempt)
		if lastErr == nil {
			return nil
		}
		if !retryable(lastErr) || attempt == d.policy.MaxAttempts-1 {
			return lastErr
		}
		delay := d.jittered(attempt + 1)
		if dl, ok := ctx.Deadline(); ok && time.Until(dl) < delay {
			return lastErr
		}
		if delay > 0 {
			timer := time.NewTimer(delay)
			select {
			case <-ctx.Done():
				timer.Stop()
				return lastErr
			case <-timer.C:
			}
		}
	}
	return lastErr
}
