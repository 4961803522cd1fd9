package resolver_test

import (
	"context"
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
	retrying := exchange.MustBuild(exchange.Options{Transport: lossy, Retry: &policy})
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

// TestRotationPastDeadServer lists a dark (unregistered) server ahead of a
// live one: every query must rotate past it instead of failing the chase.
func TestRotationPastDeadServer(t *testing.T) {
	h := newWorld(t)
	r := resolver.New(resolver.Config{
		Roots:    []string{"dead.root.example", dnstest.RootAddr},
		Exchange: h.Net,
	})
	ctx := context.Background()
	for i := 0; i < 4; i++ {
		res, err := r.Resolve(ctx, "www.signed.com", dnswire.TypeA)
		if err != nil {
			t.Fatalf("resolve with a dead root listed: %v", err)
		}
		if res.RCode != dnswire.RCodeSuccess {
			t.Fatalf("rcode: %v", res.RCode)
		}
		r.FlushCache()
	}
	// A failed exchange is a transport error, or a fast fail once the
	// breaker has opened on the dead server.
	if c := r.Stack().Counters(); c.Transport.Errors+c.Health.FastFails == 0 {
		t.Error("dead server never hit: rotation not exercised")
	}
}
