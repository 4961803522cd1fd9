package apiserv

import (
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateShedsAtCapacity: with every slot and queue position full,
// further requests are shed with 429 + Retry-After instead of piling up.
func TestGateShedsAtCapacity(t *testing.T) {
	g := newGate(1, 1, 10*time.Millisecond)
	block := make(chan struct{})
	started := make(chan struct{}, 8)
	h := g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		started <- struct{}{}
		<-block
	}))

	// Occupy the single slot.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/table1", nil))
	}()
	<-started

	// Burst while the slot is held: at most one waits in the queue (and
	// times out after the queue wait), the rest shed immediately.
	const burst = 6
	codes := make(chan int, burst)
	for i := 0; i < burst; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/table1", nil))
			if rec.Code == http.StatusTooManyRequests && rec.Header().Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			codes <- rec.Code
		}()
	}
	shed := 0
	for i := 0; i < burst; i++ {
		if c := <-codes; c == http.StatusTooManyRequests {
			shed++
		} else {
			t.Errorf("unexpected status %d during overload", c)
		}
	}
	if shed != burst {
		t.Fatalf("shed %d of %d burst requests", shed, burst)
	}
	if got := g.shed.Load(); got != burst {
		t.Fatalf("shed counter = %d, want %d", got, burst)
	}
	close(block)
	wg.Wait()

	// The gate recovers: a fresh request is admitted.
	rec := httptest.NewRecorder()
	h2 := g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {}))
	h2.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/table1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("post-overload request got %d", rec.Code)
	}
}

// TestGateQueueAdmitsWhenSlotFrees: a queued request is admitted once the
// in-flight one releases its slot within the queue wait.
func TestGateQueueAdmitsWhenSlotFrees(t *testing.T) {
	g := newGate(1, 1, 2*time.Second)
	release := make(chan struct{})
	// Buffered: the first handler must not find the test not yet
	// receiving and take the default branch, which would never signal.
	entered := make(chan struct{}, 1)
	h := g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		select {
		case entered <- struct{}{}:
			<-release
		default:
		}
	}))
	go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	<-entered

	done := make(chan int)
	go func() {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
		done <- rec.Code
	}()
	time.Sleep(20 * time.Millisecond) // let it queue
	close(release)
	if code := <-done; code != http.StatusOK {
		t.Fatalf("queued request got %d, want 200", code)
	}
	if g.admitted.Load() != 2 {
		t.Fatalf("admitted = %d, want 2", g.admitted.Load())
	}
}

// TestRecoverPanics: a panicking handler yields a 500, increments the
// counter, and the process (and subsequent requests) survive.
func TestRecoverPanics(t *testing.T) {
	var panics atomic.Uint64
	calls := 0
	h := recoverPanics(&panics, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		calls++
		if calls == 1 {
			panic("handler bug")
		}
		w.WriteHeader(http.StatusOK)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/table1", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("panicking request got %d, want 500", rec.Code)
	}
	if panics.Load() != 1 {
		t.Fatalf("panic counter = %d, want 1", panics.Load())
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/table1", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("follow-up request got %d, want 200", rec.Code)
	}
}

// TestWithDeadline: the per-request context carries a deadline and expires.
func TestWithDeadline(t *testing.T) {
	h := withDeadline(30*time.Millisecond, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := r.Context().Deadline(); !ok {
			t.Error("request context has no deadline")
		}
		select {
		case <-r.Context().Done():
		case <-time.After(5 * time.Second):
			t.Error("request context never expired")
		}
		w.WriteHeader(http.StatusGatewayTimeout)
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/series", nil))
	if rec.Code != http.StatusGatewayTimeout {
		t.Fatalf("got %d", rec.Code)
	}
}

// TestGateConcurrencyCeiling: under a sustained flood the number of
// handlers running at once never exceeds MaxInFlight.
func TestGateConcurrencyCeiling(t *testing.T) {
	const maxInFlight = 4
	g := newGate(maxInFlight, 2, time.Millisecond)
	var inFlight, peak atomic.Int32
	h := g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n := inFlight.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(time.Millisecond)
		inFlight.Add(-1)
	}))
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
		}()
	}
	wg.Wait()
	if p := peak.Load(); p > maxInFlight {
		t.Fatalf("peak concurrency %d exceeds limit %d", p, maxInFlight)
	}
	if g.admitted.Load() == 0 {
		t.Fatal("nothing admitted")
	}
}

// TestShedBodyMentionsOverload: the 429 body is a JSON error a client can
// read, not an empty response.
func TestShedBodyMentionsOverload(t *testing.T) {
	g := newGate(1, 0, time.Millisecond)
	block := make(chan struct{})
	entered := make(chan struct{})
	h := g.wrap(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		close(entered)
		<-block
	}))
	go h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/", nil))
	<-entered
	defer close(block)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("got %d, want 429", rec.Code)
	}
	if body := rec.Body.String(); !strings.Contains(body, "overload") {
		t.Fatalf("shed body %q does not mention overload", body)
	}
}
