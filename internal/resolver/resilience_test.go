package resolver_test

import (
	"context"
	"sync/atomic"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/resolver"
	"securepki.org/registrarsec/internal/retry"
)

// TestResolutionSurvivesLossyNetwork drives the full referral chase through
// a fault injector dropping a quarter of all packets: over a transport that
// retries, every lookup still completes.
func TestResolutionSurvivesLossyNetwork(t *testing.T) {
	h := newWorld(t)
	lossy := faultnet.New(h.Net, 11, nil, faultnet.Rule{Pattern: "*", Loss: 0.25})
	policy := retry.Policy{MaxAttempts: 6, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
	retrying, err := exchange.Build(exchange.Options{Transport: lossy, Retry: &policy})
	if err != nil {
		t.Fatal(err)
	}
	r := resolver.New(resolver.Config{
		Roots:    []string{dnstest.RootAddr},
		Exchange: retrying,
		DNSSEC:   true,
	})
	ctx := context.Background()
	for _, name := range []string{"www.signed.com", "www.partial.com", "www.plain.com", "www.signed.org"} {
		res, err := r.Resolve(ctx, name, dnswire.TypeA)
		if err != nil {
			t.Fatalf("resolve %s over lossy network: %v", name, err)
		}
		if res.RCode != dnswire.RCodeSuccess || len(res.Answers) == 0 {
			t.Errorf("%s: rcode=%v answers=%d", name, res.RCode, len(res.Answers))
		}
	}
	if retrying.Counters().Retry.Retries == 0 {
		t.Error("injector idle: the test exercised nothing")
	}
}

// TestRotationPastDeadServer lists a dark (unregistered) root ahead of a
// live one: servers are tried in the order listed, so every lookup spends
// exactly one failed exchange on the dead root and then completes.
func TestRotationPastDeadServer(t *testing.T) {
	h := newWorld(t)
	var failed atomic.Int64
	counted := exchange.Func(func(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
		resp, err := h.Net.Exchange(ctx, server, q)
		if err != nil {
			failed.Add(1)
		}
		return resp, err
	})
	r := resolver.New(resolver.Config{
		Roots:    []string{"dead.root.example", dnstest.RootAddr},
		Exchange: counted,
	})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		before := failed.Load()
		res, err := r.Resolve(ctx, "www.signed.com", dnswire.TypeA)
		if err != nil {
			t.Fatalf("resolve with a dead root listed: %v", err)
		}
		if res.RCode != dnswire.RCodeSuccess {
			t.Fatalf("rcode: %v", res.RCode)
		}
		if got := failed.Load() - before; got != 1 {
			t.Errorf("lookup %d: %d failed exchanges, want 1 (the dead root, listed first)", i, got)
		}
		r.FlushCache()
	}
}
