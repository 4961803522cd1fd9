package exchange_test

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
)

// scriptedExchanger returns the scripted outcomes in order, then succeeds.
type scriptedExchanger struct {
	script []func(q *dnswire.Message) (*dnswire.Message, error)
	calls  atomic.Int64
}

func (e *scriptedExchanger) Exchange(_ context.Context, _ string, q *dnswire.Message) (*dnswire.Message, error) {
	n := int(e.calls.Add(1)) - 1
	if n < len(e.script) {
		return e.script[n](q)
	}
	resp := q.Reply()
	resp.Authoritative = true
	return resp, nil
}

// retrying is the stack Tap → Retry over inner with a fast policy.
func retrying(t testing.TB, inner exchange.Exchanger, attempts int) *exchange.Stack {
	p := fastPolicy(attempts)
	return mustBuild(t, exchange.Options{Transport: inner, Retry: &p})
}

func fail(msg string) func(*dnswire.Message) (*dnswire.Message, error) {
	return func(*dnswire.Message) (*dnswire.Message, error) { return nil, errors.New(msg) }
}

func rcode(rc dnswire.RCode) func(*dnswire.Message) (*dnswire.Message, error) {
	return func(q *dnswire.Message) (*dnswire.Message, error) {
		resp := q.Reply()
		resp.RCode = rc
		return resp, nil
	}
}

func TestRetryingRecoversFromTransientErrors(t *testing.T) {
	inner := &scriptedExchanger{script: []func(*dnswire.Message) (*dnswire.Message, error){
		fail("timeout"), fail("timeout"),
	}}
	ex := retrying(t, inner, 3)
	resp, err := ex.Exchange(context.Background(), "srv", dnswire.NewQuery(1, "a.com", dnswire.TypeNS))
	if err != nil || !resp.Authoritative {
		t.Fatalf("exchange: %v %v", resp, err)
	}
	if rc := ex.Counters().Retry; rc.Retries != 2 || rc.Failures != 0 {
		t.Errorf("retries=%d failures=%d", rc.Retries, rc.Failures)
	}
}

func TestRetryingExhaustsBudget(t *testing.T) {
	inner := &scriptedExchanger{script: []func(*dnswire.Message) (*dnswire.Message, error){
		fail("t1"), fail("t2"), fail("t3"), fail("t4"),
	}}
	ex := retrying(t, inner, 3)
	if _, err := ex.Exchange(context.Background(), "srv", dnswire.NewQuery(1, "a.com", dnswire.TypeNS)); err == nil {
		t.Fatal("expected failure")
	}
	if inner.calls.Load() != 3 {
		t.Errorf("attempts: %d, want 3", inner.calls.Load())
	}
	if rc := ex.Counters().Retry; rc.Retries != 2 || rc.Failures != 1 {
		t.Errorf("retries=%d failures=%d", rc.Retries, rc.Failures)
	}
}

func TestRetryingNoRouteIsPermanent(t *testing.T) {
	net := dnsserver.NewMemNet()
	ex := retrying(t, net, 5)
	_, err := ex.Exchange(context.Background(), "dark.example", dnswire.NewQuery(1, "a.com", dnswire.TypeNS))
	if !errors.Is(err, exchange.ErrNoRoute) {
		t.Fatalf("err: %v", err)
	}
	if got := ex.Counters().Retry.Retries; got != 0 {
		t.Errorf("retried a no-route address %d times", got)
	}
}

func TestRetryLameRecoversAndGivesUpGracefully(t *testing.T) {
	// Transient SERVFAIL then clean: recovered.
	inner := &scriptedExchanger{script: []func(*dnswire.Message) (*dnswire.Message, error){
		rcode(dnswire.RCodeServerFailure),
	}}
	ex := retrying(t, inner, 3)
	resp, err := ex.Exchange(context.Background(), "srv", dnswire.NewQuery(1, "a.com", dnswire.TypeNS))
	if err != nil || resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("recovery: %v %v", resp, err)
	}
	if got := ex.Counters().Retry.Retries; got != 1 {
		t.Errorf("retries: %d", got)
	}

	// Persistent SERVFAIL: the caller still sees the rcode, not an error.
	always := &scriptedExchanger{script: []func(*dnswire.Message) (*dnswire.Message, error){
		rcode(dnswire.RCodeServerFailure), rcode(dnswire.RCodeServerFailure), rcode(dnswire.RCodeServerFailure),
	}}
	ex2 := retrying(t, always, 3)
	resp, err = ex2.Exchange(context.Background(), "srv", dnswire.NewQuery(2, "a.com", dnswire.TypeNS))
	if err != nil || resp.RCode != dnswire.RCodeServerFailure {
		t.Fatalf("persistent lame: %v %v", resp, err)
	}
}

func TestRetryTruncated(t *testing.T) {
	tc := func(q *dnswire.Message) (*dnswire.Message, error) {
		resp := q.Reply()
		resp.Truncated = true
		return resp, nil
	}
	inner := &scriptedExchanger{script: []func(*dnswire.Message) (*dnswire.Message, error){tc}}
	ex := retrying(t, inner, 3)
	resp, err := ex.Exchange(context.Background(), "srv", dnswire.NewQuery(1, "a.com", dnswire.TypeNS))
	if err != nil || resp.Truncated {
		t.Fatalf("truncation retry: %v %v", resp, err)
	}
}
