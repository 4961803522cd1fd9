package scan_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/retry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// timeoutErr mimics a transport timeout.
type timeoutErr struct{}

func (timeoutErr) Error() string { return "scripted: i/o timeout" }
func (timeoutErr) Timeout() bool { return true }

// resweepWorld scripts a two-host domain: h1 is permanently dark, h2
// times out on its first flaky.test DNSKEY query and answers afterwards,
// and a second domain served by h2 alone establishes h2 as known-alive
// during pass one.
type resweepWorld struct {
	mu      sync.Mutex
	queries []string // "server|name|type" in arrival order
	h2Seen  int
}

func (w *resweepWorld) log(server string, q *dnswire.Message) {
	w.queries = append(w.queries, fmt.Sprintf("%s|%s|%v", server, q.Questions[0].Name, q.Questions[0].Type))
}

func (w *resweepWorld) Exchange(_ context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.log(server, q)
	name, qt := q.Questions[0].Name, q.Questions[0].Type
	resp := q.Reply()
	resp.Authoritative = true
	switch server {
	case "tld.server":
		if qt == dnswire.TypeNS {
			hosts := []string{"h2.example"}
			if name == "flaky.test" {
				hosts = []string{"h1.example", "h2.example"}
			}
			for _, h := range hosts {
				resp.Authority = append(resp.Authority, dnswire.NewRR(name, 300, &dnswire.NS{Host: h}))
			}
		}
		return resp, nil // DS: empty success (no DS)
	case "h1.example":
		return nil, timeoutErr{}
	case "h2.example":
		if server == "h2.example" && name == "flaky.test" {
			w.h2Seen++
			if w.h2Seen == 1 {
				return nil, timeoutErr{}
			}
		}
		if qt == dnswire.TypeDNSKEY {
			resp.Answers = append(resp.Answers, dnswire.NewRR(name, 300, &dnswire.DNSKEY{
				Flags: 257, Protocol: 3, Algorithm: dnswire.AlgED25519, PublicKey: make([]byte, 32),
			}))
		}
		return resp, nil
	}
	return nil, timeoutErr{}
}

// TestResweepOrdersKnownDeadHostsLast locks in the re-sweep contract: a
// server that answered nothing during the first pass must not lead DNSKEY
// failover on the re-sweep pass. h1 eats exactly one DNSKEY query (pass
// one); the re-sweep asks the known-alive h2 first, gets the keys, and
// never returns to h1.
func TestResweepOrdersKnownDeadHostsLast(t *testing.T) {
	world := &resweepWorld{}
	s, err := scan.New(scan.Config{
		Exchange:   world,
		TLDServers: map[string]string{"test": "tld.server", "example": "tld.server"},
		Workers:    1,
		Clock:      func() simtime.Day { return simtime.Day(1) },
		Retry:      retry.Policy{MaxAttempts: 1, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := []scan.Target{
		{Domain: "solo.test", TLD: "test"},
		{Domain: "flaky.test", TLD: "test"},
	}
	snap, health, err := s.ScanDay(context.Background(), simtime.Day(1), targets)
	if err != nil {
		t.Fatal(err)
	}
	if health.Resweeps != 1 {
		t.Fatalf("resweeps = %d, want 1 (%s)", health.Resweeps, health)
	}
	if health.Measured != 2 || len(health.Failures) != 0 {
		t.Fatalf("flaky target not recovered on resweep: %s", health)
	}
	h1 := 0
	for _, q := range world.queries {
		if q == "h1.example|flaky.test|DNSKEY" {
			h1++
		}
	}
	if h1 != 1 {
		t.Errorf("dark host got %d DNSKEY queries, want 1: resweep must try known-alive hosts first\n%v", h1, world.queries)
	}
	// The scanner's own per-server counts back the ordering decision.
	dead := s.DeadServers()
	if !dead["h1.example"] {
		t.Errorf("h1 not recorded dead: %v", dead)
	}
	if dead["h2.example"] {
		t.Errorf("h2 wrongly dead: %v", dead)
	}
	// Exchange counters ride along in the sweep report.
	if health.Exchange.Transport.Exchanges == 0 || health.Exchange.Retry.Failures == 0 {
		t.Errorf("sweep exchange counters empty: %+v", health.Exchange)
	}
	if got := len(snap.Records); got != 2 {
		t.Errorf("records = %d, want 2", got)
	}
}

// stallWorld answers nothing: every exchange waits for its context to die,
// and the first to arrive closes arrived.
type stallWorld struct {
	arrived chan struct{}
	once    sync.Once
}

func (w *stallWorld) Exchange(ctx context.Context, _ string, _ *dnswire.Message) (*dnswire.Message, error) {
	w.once.Do(func() { close(w.arrived) })
	<-ctx.Done()
	return nil, ctx.Err()
}

// TestCancelledSweepMarksNoServerDead cancels a ScanDay while its queries
// wait on the TLD server: the cancellation is the caller's condition, so
// it counts no failure against that server and leaves it out of the
// known-dead set a later pass would order by.
func TestCancelledSweepMarksNoServerDead(t *testing.T) {
	world := &stallWorld{arrived: make(chan struct{})}
	s, err := scan.New(scan.Config{
		Exchange:   world,
		TLDServers: map[string]string{"test": "tld.server"},
		Workers:    2,
		Retry:      retry.Policy{MaxAttempts: 3, BaseDelay: time.Microsecond, MaxDelay: time.Microsecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		<-world.arrived
		cancel()
	}()
	targets := []scan.Target{{Domain: "a.test", TLD: "test"}, {Domain: "b.test", TLD: "test"}, {Domain: "c.test", TLD: "test"}}
	_, health, err := s.ScanDay(ctx, simtime.Day(1), targets)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ScanDay error = %v, want context.Canceled", err)
	}
	if !health.Balanced() || health.Cancelled() != len(targets) {
		t.Fatalf("every target must be accounted cancelled: %s", health)
	}
	if dead := s.DeadServers(); len(dead) != 0 {
		t.Errorf("cancelled queries marked servers dead: %v", dead)
	}
}
