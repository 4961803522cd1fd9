package epp

import (
	"errors"
	"net"
	"sync"
)

// Server accepts EPP connections over TCP and hands each to Session, which
// serves it — greeting, commands, logout — and closes it. Package registry
// serves the sessions: a registry's ServeEPP is the Session of its
// listener.
type Server struct {
	// Session serves one connection until logout or error.
	Session func(conn net.Conn)

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{} // live sessions, closed by Close
	wg     sync.WaitGroup
	closed bool
}

// ListenAndServe binds addr and serves sessions until Close.
func (s *Server) ListenAndServe(addr string) error {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		ln.Close()
		return errors.New("epp: server closed")
	}
	s.ln = ln
	s.mu.Unlock()
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return nil
}

// Addr returns the bound address.
func (s *Server) Addr() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Addr().String()
}

// Close stops the listener, closes every open session — a command in
// flight loses its reply — and waits for the session goroutines to exit.
func (s *Server) Close() error {
	s.mu.Lock()
	s.closed = true
	ln := s.ln
	for conn := range s.conns {
		conn.Close()
	}
	s.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	s.wg.Wait()
	return nil
}

// track registers a live session; false means the server is closing and the
// connection must not be served.
func (s *Server) track(conn net.Conn) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return false
	}
	if s.conns == nil {
		s.conns = make(map[net.Conn]struct{})
	}
	s.conns[conn] = struct{}{}
	return true
}

func (s *Server) untrack(conn net.Conn) {
	s.mu.Lock()
	delete(s.conns, conn)
	s.mu.Unlock()
}

func (s *Server) acceptLoop(ln net.Listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		s.wg.Add(1)
		go func(conn net.Conn) {
			defer s.wg.Done()
			if !s.track(conn) {
				conn.Close()
				return
			}
			defer s.untrack(conn)
			s.Session(conn)
		}(conn)
	}
}
