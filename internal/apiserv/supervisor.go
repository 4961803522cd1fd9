package apiserv

// A minimal supervision tree for the daemon's internal components (today
// the tailer alone): each component runs in its own goroutine and is
// restarted with exponential backoff when it fails — by returning
// an error or by panicking. A panic in the ingest loop must never take
// down the query plane, and vice versa; the supervisor converts both into
// a logged restart.

import (
	"context"
	"fmt"
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

// Supervisor restarts failed components with exponential backoff.
type Supervisor struct {
	// Backoff is the delay before the first restart; it doubles per
	// consecutive failure up to MaxBackoff and resets once a run survives
	// longer than ResetAfter.
	Backoff    time.Duration
	MaxBackoff time.Duration
	ResetAfter time.Duration
	// Logf receives restart diagnostics; nil discards them.
	Logf func(format string, args ...any)

	// OnRestart, when non-nil, observes every restart (test hook and
	// health accounting).
	OnRestart func(component string, cause error)
}

func (s *Supervisor) logf(format string, args ...any) {
	if s.Logf != nil {
		s.Logf(format, args...)
	}
}

// Run supervises every component until ctx is canceled and all of them
// have returned.
func (s *Supervisor) Run(ctx context.Context, components ...Component) {
	backoff := s.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	maxBackoff := s.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 5 * time.Second
	}
	resetAfter := s.ResetAfter
	if resetAfter <= 0 {
		resetAfter = 30 * time.Second
	}
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
				if time.Since(start) > resetAfter {
					delay = backoff
				}
				s.logf("apiserv: component %s failed (%v), restarting in %v", c.Name, err, delay)
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
