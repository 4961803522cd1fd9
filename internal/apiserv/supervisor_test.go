package apiserv

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"
)

// TestSupervisorRestartsOnPanic: a component that panics is restarted
// (with backoff) instead of taking the process down, and a later clean
// return ends supervision of it.
func TestSupervisorRestartsOnPanic(t *testing.T) {
	var runs, restarts atomic.Int32
	sup := &Supervisor{
		backoff: time.Millisecond,
		OnRestart: func(name string, cause error) {
			if name != "flaky" {
				t.Errorf("restarted component %q, want flaky", name)
			}
			if cause == nil {
				t.Error("restart with nil cause")
			}
			restarts.Add(1)
		},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sup.Run(context.Background(), Component{Name: "flaky", Run: func(ctx context.Context) error {
			switch runs.Add(1) {
			case 1:
				panic("first run explodes")
			case 2:
				return errors.New("second run fails politely")
			}
			return nil
		}})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not converge")
	}
	if runs.Load() != 3 || restarts.Load() != 2 {
		t.Fatalf("runs=%d restarts=%d, want 3/2", runs.Load(), restarts.Load())
	}
}

// TestSupervisorStopsOnCancel: cancellation ends supervision even of a
// perpetually failing component.
func TestSupervisorStopsOnCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	sup := &Supervisor{backoff: time.Millisecond}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sup.Run(ctx, Component{Name: "doomed", Run: func(ctx context.Context) error {
			return errors.New("always fails")
		}})
	}()
	time.Sleep(20 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("supervisor did not stop on cancel")
	}
}

// TestSupervisorBackoffGrows: consecutive failures space out; the delay
// doubles up to the cap.
func TestSupervisorBackoffGrows(t *testing.T) {
	var stamps []time.Time
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	sup := &Supervisor{backoff: 10 * time.Millisecond, maxBackoff: 40 * time.Millisecond}
	done := make(chan struct{})
	go func() {
		defer close(done)
		sup.Run(ctx, Component{Name: "flappy", Run: func(ctx context.Context) error {
			stamps = append(stamps, time.Now())
			if len(stamps) >= 4 {
				cancel()
				return nil
			}
			return errors.New("fail")
		}})
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("supervisor did not converge")
	}
	if len(stamps) < 4 {
		t.Fatalf("only %d runs", len(stamps))
	}
	// The third gap (after two failures) must be at least the doubled
	// backoff; timer slop only ever makes gaps longer.
	if gap := stamps[2].Sub(stamps[1]); gap < 20*time.Millisecond {
		t.Fatalf("second restart after %v, want >= 20ms (doubled backoff)", gap)
	}
}
