package dnsserver

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// Server runs a Handler over real UDP and TCP sockets on the same address,
// as a production nameserver would. UDP responses larger than the client's
// advertised payload are truncated with TC=1 so the client retries over TCP
// (RFC 1035 section 4.2).
//
// The UDP request path runs a fixed pool of reader/worker loops (one per
// CPU by default). When the Handler is an *Authoritative with a response
// cache, each worker first tries the zero-alloc hit side (lazy parse +
// cache) inline; misses and off-fast-path packets — and every packet of
// any other Handler — take serveWire on goroutines bounded by a
// semaphore of maxInFlight slots.
// When the semaphore is exhausted the packet is dropped and counted,
// mirroring the apiserv admission gate, so a query flood degrades to shed
// load instead of unbounded goroutines.
//
// The TCP path is goroutine-per-connection with blocking reads — the
// expensive slow path truncation retries and AXFR land on — so without a
// cap a connection flood would pin one goroutine plus buffers per socket.
// At most maxTCPConns connections are served at once; those beyond are
// closed at accept and counted, the same shed-don't-queue admission. An
// idle connection is closed after tcpReadTimeout. Diagnostics go to
// slog.Default at debug level.
type Server struct {
	Handler Handler
	// UDPWorkers sets the reader/worker pool size (default GOMAXPROCS).
	UDPWorkers int

	stats       serverCounters
	sem         chan struct{}
	tcpSem      chan struct{}
	readTimeout time.Duration

	mu       sync.Mutex
	pc       *net.UDPConn
	ln       net.Listener
	wg       sync.WaitGroup
	conns    map[net.Conn]struct{}
	closed   bool
	draining bool
}

type serverCounters struct {
	queries   atomic.Uint64
	cacheHits atomic.Uint64
	slowPath  atomic.Uint64
	dropped   atomic.Uint64
	malformed atomic.Uint64
	tcpShed   atomic.Uint64
}

// ServerStats is a point-in-time snapshot of the UDP path counters.
type ServerStats struct {
	// Queries is the number of UDP packets read.
	Queries uint64 `json:"queries"`
	// CacheHits were answered inline by the wire fast path.
	CacheHits uint64 `json:"cache_hits"`
	// SlowPath queries took the full parse/render path.
	SlowPath uint64 `json:"slow_path"`
	// Dropped packets were shed because the slow-path slots were exhausted.
	Dropped uint64 `json:"dropped"`
	// Malformed packets failed the full parse (or packing) and got no reply.
	Malformed uint64 `json:"malformed"`
	// TCPShed connections were closed at accept because the TCP connection
	// slots were exhausted.
	TCPShed uint64 `json:"tcp_shed"`
}

// The server's admission limits.
const (
	maxInFlight    = 512
	maxTCPConns    = 64
	tcpReadTimeout = 5 * time.Second
)

// Stats snapshots the server's UDP counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Queries:   s.stats.queries.Load(),
		CacheHits: s.stats.cacheHits.Load(),
		SlowPath:  s.stats.slowPath.Load(),
		Dropped:   s.stats.dropped.Load(),
		Malformed: s.stats.malformed.Load(),
		TCPShed:   s.stats.tcpShed.Load(),
	}
}

// pktPool recycles slow-path packet copies; scratchPool recycles the
// parse/pack scratch the transient slow-path goroutines use.
var pktPool = sync.Pool{New: func() any {
	b := make([]byte, 65535)
	return &b
}}

var scratchPool = sync.Pool{New: func() any { return NewWireScratch() }}

// ListenAndServe binds UDP and TCP on addr ("127.0.0.1:0" for an ephemeral
// port) and serves until Close. It returns once both listeners are active;
// Addr then reports the bound address.
func (s *Server) ListenAndServe(addr string) error {
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return fmt.Errorf("dnsserver: udp listen: %w", err)
	}
	pc, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return fmt.Errorf("dnsserver: udp listen: %w", err)
	}
	// Bind TCP on the identical port so clients can retry after truncation.
	tcpAddr := pc.LocalAddr().String()
	ln, err := net.Listen("tcp", tcpAddr)
	if err != nil {
		pc.Close()
		return fmt.Errorf("dnsserver: tcp listen: %w", err)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		pc.Close()
		ln.Close()
		return errors.New("dnsserver: server closed")
	}
	s.pc, s.ln = pc, ln
	if s.sem == nil {
		s.sem = make(chan struct{}, maxInFlight)
		s.tcpSem = make(chan struct{}, maxTCPConns)
		s.readTimeout = tcpReadTimeout
	}
	s.mu.Unlock()
	workers := s.UDPWorkers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	s.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go s.udpWorker(pc)
	}
	s.wg.Add(1)
	go s.serveTCP(ln)
	return nil
}

// Addr returns the bound UDP address, or "" before ListenAndServe.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.pc == nil {
		return ""
	}
	return s.pc.LocalAddr().String()
}

// Close stops the listeners, severs open connections, and waits for
// in-flight handlers. For an orderly stop that lets in-flight queries
// finish and deliver their responses, use Shutdown.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	pc, ln := s.pc, s.ln
	conns := s.snapshotConnsLocked()
	s.mu.Unlock()
	if pc != nil {
		pc.Close()
	}
	if ln != nil {
		ln.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	s.wg.Wait()
	return nil
}

// Shutdown gracefully stops the server: it stops accepting new queries,
// lets in-flight handlers finish and write their responses, then closes
// the sockets. If ctx expires before the drain completes, remaining
// connections are severed and ctx's error is returned; a nil return
// means every in-flight query was answered.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	s.closed = true
	s.draining = true
	pc, ln := s.pc, s.ln
	conns := s.snapshotConnsLocked()
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	if pc != nil {
		// Stop the UDP read loop without closing the socket: in-flight
		// handlers still need it to write their responses.
		pc.SetReadDeadline(time.Now())
	}
	// Wake idle TCP readers so their goroutines observe the drain; a
	// handler mid-query is unaffected (only the read side is expired)
	// and still delivers its response before the connection closes.
	for _, c := range conns {
		c.SetReadDeadline(time.Now())
	}
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.mu.Lock()
		conns = s.snapshotConnsLocked()
		s.mu.Unlock()
		for _, c := range conns {
			c.Close()
		}
	}
	if pc != nil {
		pc.Close()
	}
	return err
}

// snapshotConnsLocked copies the tracked TCP connections; s.mu must be held.
func (s *Server) snapshotConnsLocked() []net.Conn {
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	return conns
}

// trackConn registers a TCP connection for shutdown bookkeeping. It
// reports false when the server is already draining, in which case the
// connection must be dropped rather than served.
func (s *Server) trackConn(c net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[c] = struct{}{}
	return true
}

func (s *Server) untrackConn(c net.Conn) {
	s.mu.Lock()
	delete(s.conns, c)
	s.mu.Unlock()
}

func (s *Server) isDraining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// udpWorker is one reader/worker loop: it owns a read buffer, a response
// buffer and parse scratch for its lifetime, answers cache hits inline
// without allocating, and dispatches everything else to semaphore-bounded
// goroutines.
func (s *Server) udpWorker(c *net.UDPConn) {
	defer s.wg.Done()
	auth, _ := s.Handler.(*Authoritative)
	sc := NewWireScratch()
	in := make([]byte, 65535)
	out := make([]byte, 0, 4096)
	for {
		n, from, err := c.ReadFromUDPAddrPort(in)
		if err != nil {
			return // closed or drain deadline
		}
		s.stats.queries.Add(1)
		if auth != nil {
			var hit bool
			out, hit = auth.ServeWireFast(out[:0], in[:n], sc)
			if hit {
				s.stats.cacheHits.Add(1)
				if _, err := c.WriteToUDPAddrPort(out, from); err != nil {
					slog.Debug("udp write", "err", err)
				}
				continue
			}
		}
		select {
		case s.sem <- struct{}{}:
		default:
			s.stats.dropped.Add(1)
			continue
		}
		s.stats.slowPath.Add(1)
		pkt := pktPool.Get().(*[]byte)
		copy(*pkt, in[:n])
		s.wg.Add(1)
		go s.serveSlowUDP(c, pkt, n, from)
	}
}

// serveSlowUDP answers one query through the slow side.
func (s *Server) serveSlowUDP(c *net.UDPConn, pkt *[]byte, n int, from netip.AddrPort) {
	defer s.wg.Done()
	defer func() { <-s.sem }()
	defer pktPool.Put(pkt)
	sc := scratchPool.Get().(*WireScratch)
	defer scratchPool.Put(sc)
	out, err := serveWire(s.Handler, sc.out[:0], (*pkt)[:n], sc, true)
	if err != nil {
		s.stats.malformed.Add(1)
		slog.Debug("dropping query", "err", err)
		return
	}
	sc.out = out[:0]
	if _, err := c.WriteToUDPAddrPort(out, from); err != nil {
		slog.Debug("udp write", "err", err)
	}
}

func (s *Server) serveTCP(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // closed
		}
		select {
		case s.tcpSem <- struct{}{}:
		default:
			// Admission gate: the connection pool is full, so shed the
			// newcomer at accept instead of queueing it — held-open sockets
			// must not grow goroutines without bound.
			s.stats.tcpShed.Add(1)
			conn.Close()
			continue
		}
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			defer func() { <-s.tcpSem }()
			defer conn.Close()
			if !s.trackConn(conn) {
				return
			}
			defer s.untrackConn(conn)
			auth, _ := s.Handler.(*Authoritative)
			sc := scratchPool.Get().(*WireScratch)
			defer scratchPool.Put(sc)
			for {
				if s.isDraining() {
					return
				}
				conn.SetReadDeadline(time.Now().Add(s.readTimeout))
				msg, err := readTCPMessage(conn)
				if err != nil {
					return
				}
				if s.serveAXFR(conn, msg) {
					continue
				}
				// The same two sides as UDP with no size limit, so a retry
				// after TC is served from the entry the UDP miss filled.
				out, hit := sc.out[:0], false
				if auth != nil {
					out, hit = auth.serveCached(out, msg, sc, false)
				}
				if !hit {
					if out, err = serveWire(s.Handler, out, msg, sc, false); err != nil {
						return
					}
				}
				sc.out = out[:0]
				if err := writeTCPMessage(conn, out); err != nil {
					return
				}
			}
		}(conn)
	}
}

// readTCPMessage reads one length-prefixed DNS message (RFC 1035 4.2.2).
func readTCPMessage(r io.Reader) ([]byte, error) {
	var lenBuf [2]byte
	if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint16(lenBuf[:])
	msg := make([]byte, n)
	if _, err := io.ReadFull(r, msg); err != nil {
		return nil, err
	}
	return msg, nil
}

// writeTCPMessage writes one length-prefixed DNS message.
func writeTCPMessage(w io.Writer, msg []byte) error {
	if len(msg) > 0xffff {
		return errors.New("dnsserver: message too large for TCP framing")
	}
	buf := make([]byte, 2+len(msg))
	binary.BigEndian.PutUint16(buf, uint16(len(msg)))
	copy(buf[2:], msg)
	_, err := w.Write(buf)
	return err
}

// NetExchanger sends queries over UDP with TCP fallback on truncation.
type NetExchanger struct {
	// Timeout per attempt (default 3s).
	Timeout time.Duration
}

// Exchange implements exchange.Exchanger. server must be a host:port address.
func (e *NetExchanger) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	timeout := e.Timeout
	if timeout == 0 {
		timeout = 3 * time.Second
	}
	out, err := q.Pack()
	if err != nil {
		return nil, err
	}
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "udp", server)
	if err != nil {
		return nil, err
	}
	deadline := time.Now().Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	conn.SetDeadline(deadline)
	resp, err := func() (*dnswire.Message, error) {
		defer conn.Close()
		if _, err := conn.Write(out); err != nil {
			return nil, err
		}
		buf := make([]byte, 65535)
		for {
			n, err := conn.Read(buf)
			if err != nil {
				return nil, err
			}
			var m dnswire.Message
			if err := m.Unpack(buf[:n]); err != nil {
				continue // hostile or corrupt datagram; keep waiting
			}
			if m.ID != q.ID {
				continue // not ours
			}
			return &m, nil
		}
	}()
	if err != nil {
		return nil, err
	}
	if resp.Truncated {
		return e.exchangeTCP(ctx, server, out, q.ID, timeout)
	}
	return resp, nil
}

func (e *NetExchanger) exchangeTCP(ctx context.Context, server string, out []byte, id uint16, timeout time.Duration) (*dnswire.Message, error) {
	d := net.Dialer{Timeout: timeout}
	conn, err := d.DialContext(ctx, "tcp", server)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	conn.SetDeadline(deadline)
	if err := writeTCPMessage(conn, out); err != nil {
		return nil, err
	}
	msg, err := readTCPMessage(conn)
	if err != nil {
		return nil, err
	}
	var m dnswire.Message
	if err := m.Unpack(msg); err != nil {
		return nil, err
	}
	if m.ID != id {
		return nil, errors.New("dnsserver: TCP response ID mismatch")
	}
	return &m, nil
}
