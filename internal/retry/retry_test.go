package retry

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"
)

func TestDoSucceedsAfterTransientFailures(t *testing.T) {
	d := NewDoer(Policy{MaxAttempts: 4, BaseDelay: time.Microsecond})
	calls := 0
	err := d.Do(context.Background(), nil, func(attempt int) error {
		if attempt != calls {
			t.Errorf("attempt %d on call %d", attempt, calls)
		}
		calls++
		if calls < 3 {
			return errors.New("transient")
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Do: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls: %d", calls)
	}
}

func TestDoExhaustsBudget(t *testing.T) {
	d := NewDoer(Policy{MaxAttempts: 3, BaseDelay: time.Microsecond})
	calls := 0
	wantErr := errors.New("down")
	err := d.Do(context.Background(), nil, func(int) error { calls++; return wantErr })
	if err != wantErr {
		t.Errorf("err: %v", err)
	}
	if calls != 3 {
		t.Errorf("calls: %d, want 3", calls)
	}
}

func TestDoStopsOnPermanentError(t *testing.T) {
	d := NewDoer(Policy{MaxAttempts: 5, BaseDelay: time.Microsecond})
	perm := errors.New("permanent")
	calls := 0
	err := d.Do(context.Background(), func(err error) bool { return err != perm }, func(int) error {
		calls++
		return perm
	})
	if err != perm || calls != 1 {
		t.Errorf("err=%v calls=%d", err, calls)
	}
}

func TestDoRespectsCancelledContext(t *testing.T) {
	d := NewDoer(Policy{MaxAttempts: 3, BaseDelay: time.Microsecond})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	err := d.Do(ctx, nil, func(int) error { calls++; return errors.New("x") })
	if err == nil {
		t.Error("cancelled Do succeeded")
	}
	if calls != 0 {
		t.Errorf("calls on dead context: %d", calls)
	}
}

func TestDoDeadlineAware(t *testing.T) {
	// A deadline too close to cover the backoff must abort instead of
	// sleeping through it.
	d := NewDoer(Policy{MaxAttempts: 5, BaseDelay: time.Hour, JitterFrac: 0})
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	calls := 0
	start := time.Now()
	err := d.Do(ctx, nil, func(int) error { calls++; return errors.New("slow server") })
	if err == nil {
		t.Error("expected error")
	}
	if calls != 1 {
		t.Errorf("calls: %d, want 1 (no sleep past the deadline)", calls)
	}
	if time.Since(start) > time.Second {
		t.Error("Do slept past the context deadline")
	}
}

func TestDelayBackoffAndCap(t *testing.T) {
	p := Policy{MaxAttempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 50 * time.Millisecond, JitterFrac: 0}.withDefaults()
	rng := rand.New(rand.NewSource(1))
	want := []time.Duration{10, 20, 40, 50, 50}
	for i, w := range want {
		if got := p.delay(i+1, rng); got != w*time.Millisecond {
			t.Errorf("delay(%d) = %v, want %v", i+1, got, w*time.Millisecond)
		}
	}
}

func TestJitterDeterministic(t *testing.T) {
	seq := func() []time.Duration {
		d := NewDoer(Policy{})
		out := make([]time.Duration, 5)
		for i := range out {
			out[i] = d.jittered(i + 1)
		}
		return out
	}
	a, b := seq(), seq()
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("jitter not deterministic: %v vs %v", a, b)
		}
	}
}

func TestDefaultsFilled(t *testing.T) {
	p := NewDoer(Policy{}).policy
	if p.MaxAttempts != 3 || p.BaseDelay != 10*time.Millisecond || p.MaxDelay != 500*time.Millisecond {
		t.Errorf("defaults: %+v", p)
	}
}
