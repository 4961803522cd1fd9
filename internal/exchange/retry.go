package exchange

import (
	"context"
	"errors"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/retry"
)

// Retry wraps an Exchanger with the retry.Policy discipline: transport
// errors, lame rcodes (SERVFAIL/REFUSED, treated as transient) and
// truncation (the in-memory transport has no TCP fallback, so re-asking is
// how a TC'd exchange recovers; NetExchanger falls back to TCP before the
// layer ever sees TC) are retried against the same server up to the attempt
// budget, with exponential backoff and deterministic jitter between
// attempts. When the budget runs out on a lame or truncated answer that
// answer is returned, not an error, so callers keep their rcode semantics.
// It is the resilience seam of the measurement path — a flaky server costs
// retries, not records.
//
// Counters are cumulative and safe for concurrent use; the scan engine
// samples them around each sweep to fill its SweepHealth report.
type Retry struct {
	inner Exchanger
	doer  *retry.Doer

	retries  atomic.Int64
	failures atomic.Int64
}

// NewRetry wraps inner with the policy (zero fields get retry defaults).
func NewRetry(inner Exchanger, p retry.Policy) *Retry {
	return &Retry{inner: inner, doer: retry.NewDoer(p)}
}

// counters snapshots the retry attempts (attempts beyond each query's
// first) and the exchanges that failed after exhausting their budget.
func (e *Retry) counters() RetryCounters {
	return RetryCounters{Retries: e.retries.Load(), Failures: e.failures.Load()}
}

// errSoftResponse wraps a response whose rcode/TC makes it retryable; if
// the budget runs out the response itself is still returned to the caller.
type errSoftResponse struct{ resp *dnswire.Message }

func (errSoftResponse) Error() string { return "exchange: retryable response" }

// retryable rejects permanent conditions: a dead context and an address
// with no route (an unregistered in-memory server stays unregistered; real
// scheduled outages surface as timeouts, which are retryable).
func retryable(err error) bool {
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) ||
		errors.Is(err, ErrNoRoute) {
		return false
	}
	return true
}

// Exchange implements Exchanger with retries.
func (e *Retry) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	var resp *dnswire.Message
	err := e.doer.Do(ctx, retryable, func(attempt int) error {
		if attempt > 0 {
			e.retries.Add(1)
		}
		m, err := e.inner.Exchange(ctx, server, q)
		if err != nil {
			return err
		}
		if m.RCode == dnswire.RCodeServerFailure || m.RCode == dnswire.RCodeRefused || m.Truncated {
			return errSoftResponse{resp: m}
		}
		resp = m
		return nil
	})
	if err != nil {
		var soft errSoftResponse
		if errors.As(err, &soft) {
			// Budget exhausted on a lame/truncated answer: hand the caller
			// the response it would have seen without the retry layer.
			return soft.resp, nil
		}
		e.failures.Add(1)
		return nil, err
	}
	return resp, nil
}
