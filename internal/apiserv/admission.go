package apiserv

// Overload protection for the query plane. Three layers compose, outermost
// first:
//
//	recoverPanics → admission gate → per-request deadline → handler
//
// The gate bounds concurrent handler work and the memory behind it: up to
// maxInFlight requests run, up to maxQueue more wait at most queueWait for
// a slot, and everything beyond that is shed immediately with 429 +
// Retry-After. Shedding is the design outcome, not a failure — under a
// flood the daemon serves maxInFlight requests at full speed and answers
// the rest cheaply, instead of collapsing with ten thousand goroutines all
// too slow to matter.

import (
	"context"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"sync/atomic"
	"time"
)

// gate is the concurrency-limited admission control.
type gate struct {
	slots    chan struct{}
	maxQueue int32
	wait     time.Duration

	queued   atomic.Int32
	admitted atomic.Uint64
	shed     atomic.Uint64
}

func newGate(inFlight, queue int, wait time.Duration) *gate {
	return &gate{
		slots:    make(chan struct{}, inFlight),
		maxQueue: int32(queue),
		wait:     wait,
	}
}

// admit tries to claim an execution slot within the queue-wait budget.
// The caller must release() after a true return.
func (g *gate) admit(r *http.Request) bool {
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return true
	default:
	}
	if g.queued.Add(1) > g.maxQueue {
		g.queued.Add(-1)
		g.shed.Add(1)
		return false
	}
	defer g.queued.Add(-1)
	t := time.NewTimer(g.wait)
	defer t.Stop()
	select {
	case g.slots <- struct{}{}:
		g.admitted.Add(1)
		return true
	case <-t.C:
	case <-r.Context().Done():
	}
	g.shed.Add(1)
	return false
}

func (g *gate) release() { <-g.slots }

// wrap applies the gate to next. Shed responses carry Retry-After so
// well-behaved clients back off instead of hammering.
func (g *gate) wrap(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if !g.admit(r) {
			w.Header().Set("Retry-After", "1")
			http.Error(w, "overloaded, retry later", http.StatusTooManyRequests)
			return
		}
		defer g.release()
		next.ServeHTTP(w, r)
	})
}

// recoverPanics converts a handler panic into a 500 so one poisoned
// request cannot take the daemon down. (net/http would also recover, but
// only after killing the connection and without accounting; here the
// failure is logged, counted, and answered.)
func recoverPanics(counter *atomic.Uint64, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				counter.Add(1)
				slog.Error("apiserv: panic serving request", "path", r.URL.Path, "panic", rec, "stack", string(debug.Stack()))
				http.Error(w, fmt.Sprintf("internal error: %v", rec), http.StatusInternalServerError)
			}
		}()
		next.ServeHTTP(w, r)
	})
}

// withDeadline bounds each admitted request's work: the context the
// handlers thread into SeriesCtx expires, the scan aborts,
// and the slot frees for the next request.
func withDeadline(d time.Duration, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		ctx, cancel := context.WithTimeout(r.Context(), d)
		defer cancel()
		next.ServeHTTP(w, r.WithContext(ctx))
	})
}
