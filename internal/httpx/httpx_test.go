package httpx

import (
	"context"
	"io"
	"net"
	"net/http"
	"testing"
	"time"
)

func TestNewServerSetsEveryTimeout(t *testing.T) {
	srv := NewServer(http.NotFoundHandler())
	if srv.ReadHeaderTimeout <= 0 || srv.ReadTimeout <= 0 ||
		srv.WriteTimeout <= 0 || srv.IdleTimeout <= 0 || srv.MaxHeaderBytes <= 0 {
		t.Fatalf("NewServer left a limit unset: %+v", srv)
	}
}

// serve runs srv on a loopback listener until the test ends and returns
// its address.
func serve(t *testing.T, srv *http.Server) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		srv.Serve(ln)
		close(done)
	}()
	t.Cleanup(func() {
		srv.Shutdown(context.Background())
		<-done
	})
	return ln.Addr().String()
}

// TestSlowClientDisconnected is the regression test for the unbounded
// servers this package replaced: a client that dribbles headers forever
// (slowloris) must be disconnected by the read-header budget, not pin a
// goroutine until process exit.
func TestSlowClientDisconnected(t *testing.T) {
	srv := NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusOK)
	}))
	srv.ReadHeaderTimeout = 100 * time.Millisecond
	srv.ReadTimeout = 200 * time.Millisecond

	conn, err := net.Dial("tcp", serve(t, srv))
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Open a request but never finish the header block.
	if _, err := io.WriteString(conn, "GET /healthz HTTP/1.1\r\nHost: stalled\r\n"); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("server answered a request whose headers never completed")
	}
	// Reaching here within the read deadline means the server hung up on
	// its own initiative — the stalled connection did not outlive the
	// header budget.
}

// TestFastRequestStillServed: the budgets must not break ordinary
// request/response traffic.
func TestFastRequestStillServed(t *testing.T) {
	srv := NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		io.WriteString(w, "ok")
	}))
	resp, err := http.Get("http://" + serve(t, srv) + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK || string(body) != "ok" {
		t.Fatalf("got %d %q (%v), want 200 ok", resp.StatusCode, body, err)
	}
}
