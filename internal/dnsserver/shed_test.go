package dnsserver_test

import (
	"net"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
)

// blockingHandler parks every query until released, simulating a slow
// rendering path so the admission semaphore fills.
type blockingHandler struct {
	release chan struct{}
}

func (b *blockingHandler) ServeDNS(q *dnswire.Message) *dnswire.Message {
	<-b.release
	return q.Reply()
}

// TestSlowPathShedsLoad pins the apiserv-style admission gate: with the
// slow-path slots exhausted by a stuck handler, excess packets are dropped
// and counted instead of spawning unbounded goroutines.
func TestSlowPathShedsLoad(t *testing.T) {
	bh := &blockingHandler{release: make(chan struct{})}
	srv := &dnsserver.Server{Handler: bh, UDPWorkers: 1}
	srv.SetLimits(1, 64, 5*time.Second)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	raddr, err := net.ResolveUDPAddr("udp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	q := dnswire.NewQuery(1, "example.com", dnswire.TypeA)
	pkt := mustPack(t, q)
	for i := 0; i < 200; i++ {
		if _, err := c.Write(pkt); err != nil {
			t.Fatal(err)
		}
	}

	deadline := time.Now().Add(5 * time.Second)
	var st dnsserver.ServerStats
	for time.Now().Before(deadline) {
		st = srv.Stats()
		if st.Dropped > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.Dropped == 0 {
		t.Fatalf("no packets shed: %+v", st)
	}
	if st.SlowPath == 0 {
		t.Errorf("no packet admitted: %+v", st)
	}
	// Release the stuck handler so Close's drain terminates, and confirm
	// the admitted query still gets its answer.
	close(bh.release)
	c.SetReadDeadline(time.Now().Add(5 * time.Second))
	buf := make([]byte, 512)
	if _, err := c.Read(buf); err != nil {
		t.Fatalf("admitted query never answered: %v", err)
	}
}

// replyHandler answers every query immediately.
type replyHandler struct{}

func (replyHandler) ServeDNS(q *dnswire.Message) *dnswire.Message { return q.Reply() }

// TestTCPConnFloodShedsLoad pins the TCP admission gate: a flood of
// held-open connections past the connection cap is shed at accept and
// counted, idle admitted connections are reaped by the read deadline, and
// the server keeps answering fresh queries throughout.
func TestTCPConnFloodShedsLoad(t *testing.T) {
	srv := &dnsserver.Server{Handler: replyHandler{}}
	srv.SetLimits(512, 4, 200*time.Millisecond)
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Flood: 50 connections that send nothing and never hang up on their
	// own. At most four may ever be admitted at once.
	var flood []net.Conn
	defer func() {
		for _, c := range flood {
			c.Close()
		}
	}()
	for i := 0; i < 50; i++ {
		c, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		flood = append(flood, c)
	}

	deadline := time.Now().Add(5 * time.Second)
	var st dnsserver.ServerStats
	for time.Now().Before(deadline) {
		st = srv.Stats()
		if st.TCPShed > 0 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if st.TCPShed == 0 {
		t.Fatalf("no connections shed: %+v", st)
	}

	// The server must stay responsive: once the read deadline reaps the
	// idle admitted connections, a fresh connection gets served. Retry
	// until then — a given dial may itself be shed while the pool is full.
	q := dnswire.NewQuery(7, "example.com", dnswire.TypeA)
	var lastErr error
	for time.Now().Before(deadline) {
		c, err := net.DialTimeout("tcp", srv.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(time.Second))
		_, err = tcpQuery(c, q)
		c.Close()
		if err == nil {
			return
		}
		lastErr = err
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatalf("server never answered over TCP after flood: %v (stats %+v)", lastErr, srv.Stats())
}
