package dnsserver_test

import (
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
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

// tcpQuery writes one length-prefixed query on conn and returns the
// length-prefixed response.
func tcpQuery(conn net.Conn, q *dnswire.Message) (*dnswire.Message, error) {
	out, err := q.Pack()
	if err != nil {
		return nil, err
	}
	buf := make([]byte, 2+len(out))
	binary.BigEndian.PutUint16(buf, uint16(len(out)))
	copy(buf[2:], out)
	if _, err := conn.Write(buf); err != nil {
		return nil, err
	}
	var lenBuf [2]byte
	if _, err := io.ReadFull(conn, lenBuf[:]); err != nil {
		return nil, err
	}
	msg := make([]byte, binary.BigEndian.Uint16(lenBuf[:]))
	if _, err := io.ReadFull(conn, msg); err != nil {
		return nil, err
	}
	var m dnswire.Message
	if err := m.Unpack(msg); err != nil {
		return nil, err
	}
	return &m, nil
}

func TestShutdownDrainsInFlightQueries(t *testing.T) {
	h := &slowHandler{entered: make(chan struct{}, 2), release: make(chan struct{})}
	srv := &dnsserver.Server{Handler: h}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}

	// One in-flight query on each transport.
	udpResp := make(chan error, 1)
	go func() {
		ex := &dnsserver.NetExchanger{Timeout: 5 * time.Second}
		_, err := ex.Exchange(context.Background(), srv.Addr(), dnswire.NewQuery(21, "example.com", dnswire.TypeA))
		udpResp <- err
	}()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tcpResp := make(chan error, 1)
	go func() {
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		_, err := tcpQuery(conn, dnswire.NewQuery(22, "example.com", dnswire.TypeA))
		tcpResp <- err
	}()
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
	srv := &dnsserver.Server{Handler: h}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	tcpResp := make(chan error, 1)
	go func() {
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		_, err := tcpQuery(conn, dnswire.NewQuery(31, "example.com", dnswire.TypeA))
		tcpResp <- err
	}()
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
	srv := &dnsserver.Server{Handler: dnsserver.HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		return q.Reply()
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	// An idle TCP connection must not hold the drain open for its read
	// timeout.
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
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
