package apiserv

// A minimal supervision tree for the daemon's internal components (today
// the tailer alone): each component runs in its own goroutine and is
// restarted with exponential backoff when it fails — by returning
// an error or by panicking. A panic in the ingest loop must never take
// down the query plane, and vice versa; the supervisor converts both into
// a logged restart.

import (
	"cmp"
	"context"
	"fmt"
	"log/slog"
	"runtime/debug"
	"sync"
	"time"
)

// Component is one supervised unit of work. Run should block until it
// fails or ctx is canceled. Returning nil declares the component cleanly
// done: it is not restarted.
type Component struct {
	Name string
	Run  func(ctx context.Context) error
}

// The restart policy: the first restart waits restartBackoff, the wait
// doubles per consecutive failure up to maxRestartBackoff, and it resets
// once a run survives longer than resetBackoffAfter.
const (
	restartBackoff    = 100 * time.Millisecond
	maxRestartBackoff = 5 * time.Second
	resetBackoffAfter = 30 * time.Second
)

// Supervisor restarts failed components with exponential backoff.
type Supervisor struct {
	// OnRestart, when non-nil, observes every restart (test hook and
	// health accounting).
	OnRestart func(component string, cause error)

	// backoff and maxBackoff replace restartBackoff and maxRestartBackoff
	// in tests.
	backoff, maxBackoff time.Duration
}

// Run supervises every component until ctx is canceled and all of them
// have returned.
func (s *Supervisor) Run(ctx context.Context, components ...Component) {
	backoff := cmp.Or(s.backoff, restartBackoff)
	maxBackoff := cmp.Or(s.maxBackoff, maxRestartBackoff)
	var wg sync.WaitGroup
	for _, c := range components {
		wg.Add(1)
		go func(c Component) {
			defer wg.Done()
			delay := backoff
			for {
				start := time.Now()
				err := s.runOnce(ctx, c)
				if err == nil || ctx.Err() != nil {
					return
				}
				if time.Since(start) > resetBackoffAfter {
					delay = backoff
				}
				slog.Warn("apiserv: component failed, restarting", "component", c.Name, "delay", delay, "err", err)
				if s.OnRestart != nil {
					s.OnRestart(c.Name, err)
				}
				select {
				case <-ctx.Done():
					return
				case <-time.After(delay):
				}
				if delay *= 2; delay > maxBackoff {
					delay = maxBackoff
				}
			}
		}(c)
	}
	wg.Wait()
}

// runOnce executes one attempt, converting a panic into an error so the
// supervisor's restart policy applies uniformly.
func (s *Supervisor) runOnce(ctx context.Context, c Component) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	return c.Run(ctx)
}
