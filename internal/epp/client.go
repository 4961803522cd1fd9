package epp

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// Client is one registrar-side EPP session.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	trid   int
	logged bool
}

// ErrEPPResult wraps a non-success result code.
var ErrEPPResult = errors.New("epp: command failed")

// NewClient starts a session on conn, a TCP connection to a registry's
// listener or one end of an in-process pipe, and consumes the server
// greeting.
func NewClient(conn net.Conn) (*Client, error) {
	conn.SetReadDeadline(time.Now().Add(Timeout))
	frame, err := ReadFrame(conn)
	if err != nil {
		conn.Close()
		return nil, fmt.Errorf("epp: reading greeting: %w", err)
	}
	doc, err := Unmarshal(frame)
	if err != nil || doc.Greeting == nil {
		conn.Close()
		return nil, errors.New("epp: no greeting from server")
	}
	return &Client{conn: conn}, nil
}

// Close terminates the session (with a logout when logged in).
func (c *Client) Close() error {
	c.mu.Lock()
	logged := c.logged
	c.mu.Unlock()
	if logged {
		_, _ = c.roundTrip(&Command{Logout: &struct{}{}})
	}
	return c.conn.Close()
}

// roundTrip sends one command and reads its response.
func (c *Client) roundTrip(cmd *Command) (*Response, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.trid++
	cmd.ClTRID = fmt.Sprintf("CL-%06d", c.trid)
	out, err := Marshal(&Epp{Command: cmd})
	if err != nil {
		return nil, err
	}
	c.conn.SetDeadline(time.Now().Add(Timeout))
	if err := WriteFrame(c.conn, out); err != nil {
		return nil, err
	}
	frame, err := ReadFrame(c.conn)
	if err != nil {
		return nil, err
	}
	doc, err := Unmarshal(frame)
	if err != nil {
		return nil, err
	}
	if doc.Response == nil {
		return nil, errors.New("epp: response missing")
	}
	return doc.Response, nil
}

// Do executes a command; a failure result is also an ErrEPPResult error.
func (c *Client) Do(cmd *Command) (*Response, error) {
	resp, err := c.roundTrip(cmd)
	if err != nil {
		return nil, err
	}
	if !resp.Result.OK() {
		return resp, fmt.Errorf("%w: %d %s", ErrEPPResult, resp.Result.Code, resp.Result.Msg)
	}
	return resp, nil
}

// Login authenticates the session.
func (c *Client) Login(clID, pw string) error {
	_, err := c.Do(&Command{Login: &Login{ClID: clID, Pw: pw}})
	if err == nil {
		c.mu.Lock()
		c.logged = true
		c.mu.Unlock()
	}
	return err
}

// CreateDomain registers a domain with its delegation and optional DS set.
func (c *Client) CreateDomain(name string, ns []string, ds []*dnswire.DS) error {
	cmd := &Command{Create: &DomainCreate{Name: name, NS: ns}}
	if len(ds) > 0 {
		cmd.Extension = secDNSAdd(ds)
	}
	_, err := c.Do(cmd)
	return err
}

// UpdateNS replaces a domain's delegation; the registry refuses an empty
// one.
func (c *Client) UpdateNS(name string, ns []string) error {
	_, err := c.Do(&Command{Update: &DomainUpdate{Name: name, Chg: &DomainChg{NS: ns}}})
	return err
}

// UpdateDS replaces a domain's DS RRset (nil removes it) — the operation at
// the heart of the paper.
func (c *Client) UpdateDS(name string, ds []*dnswire.DS) error {
	cmd := &Command{Update: &DomainUpdate{Name: name}}
	if len(ds) == 0 {
		cmd.Extension = &Extension{SecDNS: &SecDNS{RemAll: true}}
	} else {
		cmd.Extension = secDNSAdd(ds)
	}
	_, err := c.Do(cmd)
	return err
}

// DeleteDomain drops a registration.
func (c *Client) DeleteDomain(name string) error {
	_, err := c.Do(&Command{Delete: &DomainRef{Name: name}})
	return err
}

// Renew extends a registration.
func (c *Client) Renew(name string) error {
	_, err := c.Do(&Command{Renew: &DomainRef{Name: name}})
	return err
}

// Info fetches a domain's registry state.
func (c *Client) Info(name string) (*DomainInfo, error) {
	resp, err := c.Do(&Command{Info: &DomainRef{Name: name}})
	if err != nil {
		return nil, err
	}
	if resp.ResData == nil {
		return nil, errors.New("epp: info response without data")
	}
	return resp.ResData, nil
}

func secDNSAdd(ds []*dnswire.DS) *Extension {
	sec := &SecDNS{RemAll: true}
	for _, d := range ds {
		sec.Add = append(sec.Add, FromDS(d))
	}
	return &Extension{SecDNS: sec}
}
