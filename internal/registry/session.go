package registry

import (
	"crypto/subtle"
	"errors"
	"fmt"
	"net"
	"time"

	"securepki.org/registrarsec/internal/epp"
)

// ServeEPP serves one EPP session on conn (RFC 5730): the greeting, then
// command and response until logout, an error, or a peer silent for
// epp.Timeout. It closes conn. A session logs in as an accredited registrar
// with its password; ownership checks then govern every object operation —
// the trust structure of production registries.
func (r *Registry) ServeEPP(conn net.Conn) {
	defer conn.Close()
	if err := send(conn, &epp.Epp{Greeting: &epp.Greeting{
		SvID:     "regsec-epp/" + r.cfg.TLD,
		Services: []string{"urn:ietf:params:xml:ns:domain-1.0", "urn:ietf:params:xml:ns:secDNS-1.1"},
	}}); err != nil {
		return
	}
	var clID string // empty until a successful login
	for {
		conn.SetReadDeadline(time.Now().Add(epp.Timeout))
		frame, err := epp.ReadFrame(conn)
		if err != nil {
			return
		}
		resp, done := result(epp.CodeParamError, "malformed command"), false
		if doc, err := epp.Unmarshal(frame); err == nil && doc.Command != nil {
			resp, done = r.dispatch(&clID, doc.Command)
			resp.ClTRID = doc.Command.ClTRID
		}
		resp.SvTRID = fmt.Sprintf("SV-%06d", r.svTRID.Add(1))
		if err := send(conn, &epp.Epp{Response: resp}); err != nil || done {
			return
		}
	}
}

// Dial opens an in-process EPP session with the registry over net.Pipe and
// logs in as registrarID: how a registrar in the same process provisions.
// Closing the client logs out and ends the session.
func (r *Registry) Dial(registrarID, password string) (*epp.Client, error) {
	cli, srv := net.Pipe()
	go r.ServeEPP(srv)
	c, err := epp.NewClient(cli)
	if err != nil {
		return nil, err
	}
	if err := c.Login(registrarID, password); err != nil {
		c.Close()
		return nil, err
	}
	return c, nil
}

// send writes one document as a frame within epp.Timeout.
func send(conn net.Conn, doc *epp.Epp) error {
	out, err := epp.Marshal(doc)
	if err != nil {
		return err
	}
	conn.SetWriteDeadline(time.Now().Add(epp.Timeout))
	return epp.WriteFrame(conn, out)
}

// dispatch executes one command for the session logged in as *clID, empty
// before login; done ends the session.
func (r *Registry) dispatch(clID *string, cmd *epp.Command) (resp *epp.Response, done bool) {
	switch {
	case cmd.Login != nil && *clID != "":
		return result(epp.CodeCommandUse, "already logged in as %s", *clID), false
	case cmd.Login != nil:
		if !r.authenticates(cmd.Login.ClID, cmd.Login.Pw) {
			return result(epp.CodeAuthError, "authentication failed"), false
		}
		*clID = cmd.Login.ClID
		return result(epp.CodeSuccess, "login ok"), false
	case cmd.Logout != nil:
		return result(epp.CodeSuccessLogout, "goodbye"), true
	case *clID == "":
		return result(epp.CodeAuthError, "login required"), false
	case cmd.Create != nil:
		c, err := r.decode(cmd.Create.Name, true, cmd.Create.NS, cmd.Extension)
		if err == nil {
			err = r.apply(*clID, true, c)
		}
		return resultFor(err), false
	case cmd.Update != nil:
		var ns []string
		if cmd.Update.Chg != nil {
			ns = cmd.Update.Chg.NS
		}
		c, err := r.decode(cmd.Update.Name, cmd.Update.Chg != nil, ns, cmd.Extension)
		if err == nil {
			err = r.apply(*clID, false, c)
		}
		return resultFor(err), false
	case cmd.Delete != nil:
		domain, err := r.inTLD(cmd.Delete.Name)
		if err == nil {
			err = r.drop(*clID, domain)
		}
		return resultFor(err), false
	case cmd.Renew != nil:
		domain, err := r.inTLD(cmd.Renew.Name)
		if err == nil {
			err = r.renew(*clID, domain)
		}
		return resultFor(err), false
	case cmd.Info != nil:
		reg, ok := r.Registration(cmd.Info.Name)
		if !ok {
			return result(epp.CodeObjectNotFound, "no such domain %s", cmd.Info.Name), false
		}
		resp := result(epp.CodeSuccess, "info")
		resp.ResData = &epp.DomainInfo{
			Name:    reg.Domain,
			ClID:    reg.RegistrarID,
			NS:      reg.NS,
			Created: reg.Created.String(),
			Expires: reg.Expires.String(),
		}
		for _, ds := range reg.DS {
			resp.ResData.DS = append(resp.ResData.DS, epp.FromDS(ds))
		}
		return resp, false
	}
	return result(epp.CodeParamError, "unrecognized command"), false
}

// authenticates reports whether password is registrarID's: an accredited
// registrar's, and not empty.
func (r *Registry) authenticates(registrarID, password string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	want, ok := r.passwords[registrarID]
	return ok && password != "" && subtle.ConstantTimeCompare([]byte(password), []byte(want)) == 1
}

// decode checks a create's or an update's domain, delegation and secDNS
// data without touching the registry. A command that sets the delegation
// (delegate) must name a nameserver; secDNS data replaces the DS RRset with
// its dsData, none removing it.
func (r *Registry) decode(name string, delegate bool, ns []string, ext *epp.Extension) (change, error) {
	domain, err := r.inTLD(name)
	if err != nil {
		return change{}, err
	}
	c := change{domain: domain}
	if delegate {
		if c.ns = normalizeHosts(ns); len(c.ns) == 0 {
			return change{}, errEmptyNameservers
		}
	}
	if ext != nil && ext.SecDNS != nil {
		c.setDS = true
		for _, d := range ext.SecDNS.Add {
			ds, err := d.ToDS()
			if err != nil {
				return change{}, fmt.Errorf("%w: %v", errBadDS, err)
			}
			c.ds = append(c.ds, ds)
		}
	}
	return c, nil
}

// result is a response with the given result code.
func result(code int, format string, args ...any) *epp.Response {
	return &epp.Response{Result: epp.Result{Code: code, Msg: fmt.Sprintf(format, args...)}}
}

// resultFor is the response to a write that returned err (RFC 5730
// section 3).
func resultFor(err error) *epp.Response {
	switch {
	case err == nil:
		return result(epp.CodeSuccess, "command completed")
	case errors.Is(err, errAlreadyExists):
		return result(epp.CodeObjectExists, "%v", err)
	case errors.Is(err, errNoSuchDomain):
		return result(epp.CodeObjectNotFound, "%v", err)
	case errors.Is(err, errWrongRegistrar):
		return result(epp.CodeAuthorization, "%v", err)
	case errors.Is(err, errOutsideTLD), errors.Is(err, errEmptyNameservers), errors.Is(err, errBadDS):
		return result(epp.CodeParamError, "%v", err)
	}
	return result(epp.CodeCommandFailed, "%v", err)
}
