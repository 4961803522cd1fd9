package dnsserver

import (
	"errors"
	"net"
	"syscall"
	"testing"

	"securepki.org/registrarsec/internal/dnswire"
)

// TestEphemeralBindSkipsHeldTCPPort reproduces the race of port 0: the UDP
// bind gets a port whose TCP twin another socket holds. ListenAndServe must
// take a fresh pair rather than fail; asked for that port by number, it
// must fail at once.
func TestEphemeralBindSkipsHeldTCPPort(t *testing.T) {
	held, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer held.Close()
	port := held.Addr().(*net.TCPAddr).Port
	binds := 0
	bindHeldFirst := func(network string, laddr *net.UDPAddr) (*net.UDPConn, error) {
		if binds++; binds == 1 {
			laddr = &net.UDPAddr{IP: laddr.IP, Port: port}
		}
		return net.ListenUDP(network, laddr)
	}
	handler := HandlerFunc(func(q *dnswire.Message) *dnswire.Message { return q.Reply() })

	srv := &Server{Handler: handler, listenUDP: bindHeldFirst}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatalf("port 0 with the first port's TCP twin held: %v", err)
	}
	defer srv.Close()
	if got := srv.pc.LocalAddr().(*net.UDPAddr).Port; binds != 2 || got == port {
		t.Errorf("%d binds, serving on port %d (the held one is %d)", binds, got, port)
	}

	binds = 0
	fixed := &Server{Handler: handler, listenUDP: bindHeldFirst}
	if err := fixed.ListenAndServe(held.Addr().String()); !errors.Is(err, syscall.EADDRINUSE) || binds != 1 {
		fixed.Close()
		t.Errorf("a fixed port whose TCP twin is held: %v after %d binds, want EADDRINUSE after one", err, binds)
	}
}
