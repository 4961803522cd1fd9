package dnsserver_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
)

// slowHandler signals when a query arrives, then waits for release before
// answering — a controllable in-flight query for shutdown drills.
type slowHandler struct {
	entered chan struct{}
	release chan struct{}
}

func (h *slowHandler) ServeDNS(q *dnswire.Message) *dnswire.Message {
	h.entered <- struct{}{}
	<-h.release
	return q.Reply()
}

// inFlightTCP sends query id over a new TCP connection to srv and returns
// where the exchange's error will arrive.
func inFlightTCP(t *testing.T, srv *dnsserver.Server, id uint16) <-chan error {
	conn := dialTCP(t, srv.Addr())
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	resp := make(chan error, 1)
	go func() {
		_, err := tcpQuery(conn, dnswire.NewQuery(id, "example.com", dnswire.TypeA))
		resp <- err
	}()
	return resp
}

func TestShutdownDrainsInFlightQueries(t *testing.T) {
	h := &slowHandler{entered: make(chan struct{}, 2), release: make(chan struct{})}
	srv := listen(t, h)

	// One in-flight query on each transport.
	udpResp := make(chan error, 1)
	go func() {
		ex := &dnsserver.NetExchanger{Timeout: 5 * time.Second}
		_, err := ex.Exchange(context.Background(), srv.Addr(), dnswire.NewQuery(21, "example.com", dnswire.TypeA))
		udpResp <- err
	}()
	tcpResp := inFlightTCP(t, srv, 22)
	<-h.entered
	<-h.entered

	// Release the handlers just after the drain begins, so both responses
	// are written while the server is shutting down.
	go func() {
		time.Sleep(50 * time.Millisecond)
		close(h.release)
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}
	if err := <-udpResp; err != nil {
		t.Errorf("in-flight UDP query lost during shutdown: %v", err)
	}
	if err := <-tcpResp; err != nil {
		t.Errorf("in-flight TCP query lost during shutdown: %v", err)
	}

	// The server is down: new queries must fail fast.
	ex := &dnsserver.NetExchanger{Timeout: 200 * time.Millisecond}
	if _, err := ex.Exchange(context.Background(), srv.Addr(), dnswire.NewQuery(23, "example.com", dnswire.TypeA)); err == nil {
		t.Error("query answered after shutdown completed")
	}
}

func TestShutdownDeadlineForcesClose(t *testing.T) {
	h := &slowHandler{entered: make(chan struct{}, 1), release: make(chan struct{})}
	srv := listen(t, h)
	tcpResp := inFlightTCP(t, srv, 31)
	<-h.entered

	// The handler never finishes within the drain budget: Shutdown must
	// give up at the deadline and sever the connection rather than hang.
	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := srv.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want deadline exceeded", err)
	}
	close(h.release) // unblock the stuck handler goroutine
	if err := <-tcpResp; err == nil {
		t.Error("client still got a response from a force-closed connection")
	}
}

func TestShutdownIdleServerIsImmediate(t *testing.T) {
	srv := listen(t, replyHandler{})
	// An idle TCP connection must not hold the drain open for its read
	// timeout.
	dialTCP(t, srv.Addr())
	time.Sleep(20 * time.Millisecond) // let the server accept and park in a read
	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("idle shutdown: %v", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("idle shutdown took %v", d)
	}
}
