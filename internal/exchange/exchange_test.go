package exchange_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/retry"
)

// countingExchanger answers every query authoritatively with a fixed-TTL
// A-like NS record and counts calls; an optional hook overrides responses.
type countingExchanger struct {
	calls atomic.Int64
	hook  func(server string, q *dnswire.Message) (*dnswire.Message, error)

	mu      sync.Mutex
	byQuery map[string]int
}

func (e *countingExchanger) Exchange(_ context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	e.calls.Add(1)
	e.mu.Lock()
	if e.byQuery == nil {
		e.byQuery = make(map[string]int)
	}
	if len(q.Questions) == 1 {
		e.byQuery[fmt.Sprintf("%s|%s|%d", server, q.Questions[0].Name, q.Questions[0].Type)]++
	}
	e.mu.Unlock()
	if e.hook != nil {
		return e.hook(server, q)
	}
	resp := q.Reply()
	resp.Authoritative = true
	resp.Answers = append(resp.Answers, dnswire.NewRR(q.Questions[0].Name, 300, &dnswire.NS{Host: "ns1.example."}))
	return resp, nil
}

func fastPolicy(attempts int) retry.Policy {
	return retry.Policy{MaxAttempts: attempts, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond}
}

// mustBuild is exchange.Build for a test's valid options.
func mustBuild(t testing.TB, opts exchange.Options) *exchange.Stack {
	t.Helper()
	st, err := exchange.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func TestCacheServesRepeatsAndHonorsTTL(t *testing.T) {
	inner := &countingExchanger{}
	c := mustBuild(t, exchange.Options{Transport: inner, Cache: &exchange.CacheOptions{}})

	q1 := dnswire.NewQuery(1, "example.com", dnswire.TypeNS)
	r1, err := c.Exchange(context.Background(), "srv", q1)
	if err != nil {
		t.Fatal(err)
	}
	q2 := dnswire.NewQuery(99, "example.com", dnswire.TypeNS)
	r2, err := c.Exchange(context.Background(), "srv", q2)
	if err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("inner calls = %d, want 1 (second query must hit cache)", inner.calls.Load())
	}
	if r2.ID != 99 || r1.ID != 1 {
		t.Fatalf("response IDs not re-addressed: %d, %d", r1.ID, r2.ID)
	}
	if len(r2.Answers) != 1 {
		t.Fatalf("cached answer lost records: %v", r2.Answers)
	}
	if cc := c.Counters().Cache; cc.Hits != 1 || cc.Misses != 1 {
		t.Errorf("hits=%d misses=%d", cc.Hits, cc.Misses)
	}
}

func TestCacheKeySeparatesServerTypeAndDOBit(t *testing.T) {
	inner := &countingExchanger{}
	c := exchange.NewCache(inner)
	ctx := context.Background()

	plain := dnswire.NewQuery(1, "example.com", dnswire.TypeNS)
	do := dnswire.NewQuery(2, "example.com", dnswire.TypeNS)
	do.SetEDNS(4096, true)
	if _, err := c.Exchange(ctx, "srv", plain); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exchange(ctx, "srv", do); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exchange(ctx, "other", dnswire.NewQuery(3, "example.com", dnswire.TypeNS)); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Exchange(ctx, "srv", dnswire.NewQuery(4, "example.com", dnswire.TypeDS)); err != nil {
		t.Fatal(err)
	}
	if inner.calls.Load() != 4 {
		t.Fatalf("inner calls = %d, want 4 distinct keys", inner.calls.Load())
	}
}

func TestCacheNegativeCachesNXDOMAINPerSOA(t *testing.T) {
	inner := &countingExchanger{hook: func(_ string, q *dnswire.Message) (*dnswire.Message, error) {
		resp := q.Reply()
		resp.RCode = dnswire.RCodeNameError
		resp.Authority = append(resp.Authority, dnswire.NewRR("com.", 900, &dnswire.SOA{
			MName: "a.gtld-servers.net.", RName: "nstld.verisign-grs.com.", Minimum: 120,
		}))
		return resp, nil
	}}
	c := exchange.NewCache(inner)
	ctx := context.Background()

	if _, err := c.Exchange(ctx, "srv", dnswire.NewQuery(1, "nope.com", dnswire.TypeNS)); err != nil {
		t.Fatal(err)
	}
	r, err := c.Exchange(ctx, "srv", dnswire.NewQuery(2, "nope.com", dnswire.TypeNS))
	if err != nil || r.RCode != dnswire.RCodeNameError {
		t.Fatalf("negative answer: %v %v", r, err)
	}
	if inner.calls.Load() != 1 {
		t.Fatalf("NXDOMAIN not negatively cached: %d inner calls", inner.calls.Load())
	}
}

func TestCacheNeverStoresTransientFailures(t *testing.T) {
	mode := "servfail"
	inner := &countingExchanger{hook: func(_ string, q *dnswire.Message) (*dnswire.Message, error) {
		resp := q.Reply()
		switch mode {
		case "servfail":
			resp.RCode = dnswire.RCodeServerFailure
		case "truncated":
			resp.Truncated = true
			resp.Answers = append(resp.Answers, dnswire.NewRR(q.Questions[0].Name, 300, &dnswire.NS{Host: "ns1.example."}))
		case "error":
			return nil, errors.New("transport down")
		}
		return resp, nil
	}}
	c := mustBuild(t, exchange.Options{Transport: inner, Cache: &exchange.CacheOptions{}})
	ctx := context.Background()
	for i, m := range []string{"servfail", "truncated", "error"} {
		mode = m
		name := fmt.Sprintf("d%d.com", i)
		c.Exchange(ctx, "srv", dnswire.NewQuery(1, name, dnswire.TypeNS))
		c.Exchange(ctx, "srv", dnswire.NewQuery(2, name, dnswire.TypeNS))
	}
	if got := inner.calls.Load(); got != 6 {
		t.Fatalf("inner calls = %d, want 6: a transient failure was served from cache", got)
	}
	if got := c.Counters().Cache.Stores; got != 0 {
		t.Errorf("stores = %d, want 0", got)
	}
}

func TestDedupCoalescesConcurrentIdenticalQueries(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 64)
	inner := &countingExchanger{hook: func(_ string, q *dnswire.Message) (*dnswire.Message, error) {
		started <- struct{}{}
		<-release
		resp := q.Reply()
		resp.Authoritative = true
		return resp, nil
	}}
	d := mustBuild(t, exchange.Options{Transport: inner, Dedup: true})

	const followers = 15
	var wg sync.WaitGroup
	errs := make(chan error, followers+1)
	ids := make(chan uint16, followers+1)
	for i := 0; i < followers+1; i++ {
		wg.Add(1)
		go func(id uint16) {
			defer wg.Done()
			r, err := d.Exchange(context.Background(), "srv", dnswire.NewQuery(id, "example.com", dnswire.TypeDNSKEY))
			if err != nil {
				errs <- err
				return
			}
			ids <- r.ID
		}(uint16(i + 1))
	}
	<-started // leader is inside the transport
	// Give followers a moment to pile onto the flight, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()
	close(errs)
	close(ids)
	for err := range errs {
		t.Fatal(err)
	}
	seen := make(map[uint16]bool)
	for id := range ids {
		seen[id] = true
	}
	if len(seen) != followers+1 {
		t.Fatalf("each caller must get its own message ID back: %d distinct", len(seen))
	}
	if inner.calls.Load() >= followers+1 {
		t.Fatalf("no coalescing happened: %d transport calls", inner.calls.Load())
	}
	dc := d.Counters().Dedup
	if dc.Hits == 0 {
		t.Error("dedup hits = 0")
	}
	if dc.Hits+dc.Misses != followers+1 {
		t.Errorf("hits+misses = %d, want %d", dc.Hits+dc.Misses, followers+1)
	}
}

func TestDedupFollowerHonorsOwnContext(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	inner := &countingExchanger{hook: func(_ string, q *dnswire.Message) (*dnswire.Message, error) {
		started <- struct{}{}
		<-release
		return q.Reply(), nil
	}}
	d := exchange.NewDedup(inner)
	go d.Exchange(context.Background(), "srv", dnswire.NewQuery(1, "example.com", dnswire.TypeNS))
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := d.Exchange(ctx, "srv", dnswire.NewQuery(2, "example.com", dnswire.TypeNS))
		done <- err
	}()
	// Let the follower reach the flight, then cancel only its context.
	time.Sleep(10 * time.Millisecond)
	cancel()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("follower error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("cancelled follower did not return")
	}
	close(release)
}

func TestBuildComposesSelectedLayersAndCounts(t *testing.T) {
	inner := &countingExchanger{}
	st, err := exchange.Build(exchange.Options{
		Transport: inner,
		Retry:     &retry.Policy{MaxAttempts: 2, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
		Dedup:     true,
		Cache:     &exchange.CacheOptions{},
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Tap == nil || st.Retry == nil || st.Dedup == nil || st.Cache == nil {
		t.Fatal("missing layer handles")
	}
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if _, err := st.Exchange(ctx, "srv", dnswire.NewQuery(uint16(i), "example.com", dnswire.TypeNS)); err != nil {
			t.Fatal(err)
		}
	}
	c := st.Counters()
	if c.Transport.Exchanges != 1 {
		t.Fatalf("transport exchanges = %d, want 1 (4 repeats must hit cache)", c.Transport.Exchanges)
	}
	if c.Cache.Hits != 4 || c.Cache.Misses != 1 {
		t.Errorf("cache hits=%d misses=%d", c.Cache.Hits, c.Cache.Misses)
	}
	d := st.Counters().Sub(c)
	if d.Transport.Exchanges != 0 || d.Cache.Hits != 0 {
		t.Errorf("Sub of identical snapshots non-zero: %+v", d)
	}

	st.FlushCache()
	if _, err := st.Exchange(ctx, "srv", dnswire.NewQuery(9, "example.com", dnswire.TypeNS)); err != nil {
		t.Fatal(err)
	}
	if st.Counters().Transport.Exchanges != 2 {
		t.Error("FlushCache did not drop entries")
	}

	if _, err := exchange.Build(exchange.Options{}); err == nil {
		t.Fatal("Build without transport must fail")
	}
}

func TestBuildMiddlewareSitsBetweenTapAndTransport(t *testing.T) {
	inner := &countingExchanger{}
	var order []string
	var mu sync.Mutex
	mw := func(name string) exchange.Middleware {
		return func(next exchange.Exchanger) exchange.Exchanger {
			return exchange.Func(func(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
				mu.Lock()
				order = append(order, name)
				mu.Unlock()
				return next.Exchange(ctx, server, q)
			})
		}
	}
	st, err := exchange.Build(exchange.Options{
		Transport:  inner,
		Middleware: []exchange.Middleware{mw("outer"), mw("inner")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := st.Exchange(context.Background(), "srv", dnswire.NewQuery(1, "example.com", dnswire.TypeNS)); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "outer" || order[1] != "inner" {
		t.Fatalf("middleware order: %v", order)
	}
	if st.Counters().Transport.Exchanges != 1 {
		t.Error("tap above middleware did not count")
	}
	// A query the middleware fails never reaches the transport, and the Tap
	// above it still counts it, as an exchange and an error.
	drop := func(exchange.Exchanger) exchange.Exchanger {
		return exchange.Func(func(context.Context, string, *dnswire.Message) (*dnswire.Message, error) {
			return nil, errors.New("dropped")
		})
	}
	st, err = exchange.Build(exchange.Options{Transport: inner, Middleware: []exchange.Middleware{drop}})
	if err != nil {
		t.Fatal(err)
	}
	calls := inner.calls.Load()
	if _, err := st.Exchange(context.Background(), "srv", dnswire.NewQuery(2, "example.com", dnswire.TypeNS)); err == nil {
		t.Fatal("the dropping middleware let a query through")
	}
	if c := st.Counters().Transport; c.Exchanges != 1 || c.Errors != 1 || inner.calls.Load() != calls {
		t.Errorf("dropped query: tap %+v, transport calls %d → %d; want 1 exchange, 1 error, no call", c, calls, inner.calls.Load())
	}
}
