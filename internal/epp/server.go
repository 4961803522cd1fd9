package epp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/registry"
)

// Server fronts one TLD registry with an EPP endpoint over TCP. Sessions
// authenticate with a registrar ID and password; the registry's own
// accreditation and ownership checks then govern every object operation —
// exactly the trust structure of production registries.
type Server struct {
	// Registry is the backing TLD registry.
	Registry *registry.Registry
	// Passwords maps registrar ID → login password.
	Passwords map[string]string

	mu     sync.Mutex
	ln     net.Listener
	conns  map[net.Conn]struct{} // live sessions, closed by Close
	wg     sync.WaitGroup
	closed bool
	svTRID int
}

// frameTimeout bounds each frame read and each reply write: a client that
// goes silent, or stops reading, holds its session no longer than this.
const frameTimeout = 10 * time.Second

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

func (s *Server) nextTRID() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.svTRID++
	return fmt.Sprintf("SV-%06d", s.svTRID)
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
			defer conn.Close()
			if !s.track(conn) {
				return
			}
			defer s.untrack(conn)
			s.session(conn)
		}(conn)
	}
}

// session runs one EPP connection: greeting, then command/response until
// logout or error.
func (s *Server) session(conn net.Conn) {
	greeting, err := Marshal(&Epp{Greeting: &Greeting{
		SvID:     "regsec-epp/" + s.Registry.TLD(),
		Services: []string{"urn:ietf:params:xml:ns:domain-1.0", "urn:ietf:params:xml:ns:secDNS-1.1"},
	}})
	if err != nil {
		return
	}
	if err := send(conn, greeting); err != nil {
		return
	}
	var clID string // empty until a successful login
	for {
		conn.SetReadDeadline(time.Now().Add(frameTimeout))
		frame, err := ReadFrame(conn)
		if err != nil {
			return
		}
		doc, err := Unmarshal(frame)
		if err != nil || doc.Command == nil {
			s.reply(conn, "", Result{Code: CodeParamError, Msg: "malformed command"}, nil)
			continue
		}
		cmd := doc.Command
		resp, newClID, done := s.dispatch(clID, cmd)
		clID = newClID
		resp.ClTRID = cmd.ClTRID
		resp.SvTRID = s.nextTRID()
		out, err := Marshal(&Epp{Response: resp})
		if err != nil {
			return
		}
		if err := send(conn, out); err != nil {
			return
		}
		if done {
			return
		}
	}
}

// send writes one frame under the write deadline.
func send(conn net.Conn, payload []byte) error {
	conn.SetWriteDeadline(time.Now().Add(frameTimeout))
	return WriteFrame(conn, payload)
}

func (s *Server) reply(conn net.Conn, clTRID string, result Result, data *DomainInfo) {
	out, err := Marshal(&Epp{Response: &Response{Result: result, ResData: data, ClTRID: clTRID, SvTRID: s.nextTRID()}})
	if err == nil {
		// A failed write surfaces as the next read's error.
		_ = send(conn, out)
	}
}

// dispatch executes one command for the session authenticated as clID.
func (s *Server) dispatch(clID string, cmd *Command) (resp *Response, newClID string, done bool) {
	newClID = clID
	fail := func(code int, format string, args ...any) *Response {
		return &Response{Result: Result{Code: code, Msg: fmt.Sprintf(format, args...)}}
	}
	switch {
	case cmd.Login != nil:
		want, ok := s.Passwords[cmd.Login.ClID]
		if !ok || want != cmd.Login.Pw {
			return fail(CodeAuthError, "authentication failed"), clID, false
		}
		return &Response{Result: Result{Code: CodeSuccess, Msg: "login ok"}}, cmd.Login.ClID, false
	case cmd.Logout != nil:
		return &Response{Result: Result{Code: CodeSuccessLogout, Msg: "goodbye"}}, "", true
	}
	if clID == "" {
		return fail(CodeAuthError, "login required"), clID, false
	}
	reg := s.Registry
	mapErr := func(err error) *Response {
		switch {
		case err == nil:
			return &Response{Result: Result{Code: CodeSuccess, Msg: "command completed"}}
		case errors.Is(err, registry.ErrAlreadyExists):
			return fail(CodeObjectExists, "%v", err)
		case errors.Is(err, registry.ErrNoSuchDomain):
			return fail(CodeObjectNotFound, "%v", err)
		case errors.Is(err, registry.ErrNotAccredited), errors.Is(err, registry.ErrWrongRegistrar):
			return fail(CodeAuthorization, "%v", err)
		case errors.Is(err, registry.ErrOutsideTLD), errors.Is(err, registry.ErrEmptyNameservers):
			return fail(CodeParamError, "%v", err)
		default:
			return fail(CodeCommandFailed, "%v", err)
		}
	}
	applySecDNS := func(domain string) error {
		if cmd.Extension == nil || cmd.Extension.SecDNS == nil {
			return nil
		}
		sec := cmd.Extension.SecDNS
		if sec.RemAll && len(sec.Add) == 0 {
			return reg.DeleteDS(clID, domain)
		}
		var dss []*dnswire.DS
		for _, d := range sec.Add {
			ds, err := d.ToDS()
			if err != nil {
				return err
			}
			dss = append(dss, ds)
		}
		return reg.SetDS(clID, domain, dss)
	}
	switch {
	case cmd.Create != nil:
		if err := reg.Register(clID, cmd.Create.Name, cmd.Create.NS); err != nil {
			return mapErr(err), clID, false
		}
		if err := applySecDNS(cmd.Create.Name); err != nil {
			return mapErr(err), clID, false
		}
		return mapErr(nil), clID, false
	case cmd.Update != nil:
		if len(cmd.Update.NS) > 0 {
			if err := reg.SetNS(clID, cmd.Update.Name, cmd.Update.NS); err != nil {
				return mapErr(err), clID, false
			}
		}
		if err := applySecDNS(cmd.Update.Name); err != nil {
			return mapErr(err), clID, false
		}
		return mapErr(nil), clID, false
	case cmd.Delete != nil:
		return mapErr(reg.Drop(clID, cmd.Delete.Name)), clID, false
	case cmd.Renew != nil:
		return mapErr(reg.Renew(clID, cmd.Renew.Name)), clID, false
	case cmd.Info != nil:
		r, ok := reg.Registration(cmd.Info.Name)
		if !ok {
			return fail(CodeObjectNotFound, "no such domain %s", cmd.Info.Name), clID, false
		}
		info := &DomainInfo{
			Name:    r.Domain,
			ClID:    r.RegistrarID,
			NS:      r.NS,
			Created: r.Created.String(),
			Expires: r.Expires.String(),
		}
		for _, ds := range r.DS {
			info.DS = append(info.DS, FromDS(ds))
		}
		return &Response{Result: Result{Code: CodeSuccess, Msg: "info"}, ResData: info}, clID, false
	}
	return fail(CodeParamError, "unrecognized command"), clID, false
}
