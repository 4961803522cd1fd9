// Package epp implements a compact subset of the Extensible Provisioning
// Protocol — the real protocol registrars use to talk to registries
// (RFC 5730 base, RFC 5731 domain mapping, RFC 5734 TCP transport framing,
// RFC 5910 secDNS extension). This is the wire on which the paper's crucial
// operation rides: a registrar uploading a customer's DS record to the
// registry.
//
// The package holds the frame and document codec, the registrar-side
// client and a TCP listener. The session itself — login, domain
// create/info/update/delete and renew, with the secDNS extension carrying
// DS data on create and update — is served by package registry, so every
// state change is immediately visible in the signed TLD zone and to the
// scan engine.
package epp

import (
	"encoding/binary"
	"encoding/hex"
	"encoding/xml"
	"errors"
	"fmt"
	"io"
	"strings"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// Result codes (RFC 5730 section 3).
const (
	CodeSuccess        = 1000
	CodeSuccessLogout  = 1500
	CodeCommandUse     = 2002
	CodeAuthError      = 2200
	CodeObjectExists   = 2302
	CodeObjectNotFound = 2303
	CodeAuthorization  = 2201
	CodeParamError     = 2005
	CodeCommandFailed  = 2400
)

// Frame I/O: EPP over TCP prefixes each XML document with a 4-octet total
// length (including the prefix itself), RFC 5734 section 4.

// maxFrame bounds accepted frames (1 MiB).
const maxFrame = 1 << 20

// Timeout bounds each frame exchange on either side of a session: a peer
// that goes silent, or stops reading, holds it no longer than this.
const Timeout = 10 * time.Second

// WriteFrame sends one EPP data unit in one write: over a synchronous pipe
// a second write, even an empty one, would wait for a read the peer need
// not make.
func WriteFrame(w io.Writer, payload []byte) error {
	if len(payload)+4 > maxFrame {
		return errors.New("epp: frame too large")
	}
	frame := binary.BigEndian.AppendUint32(make([]byte, 0, len(payload)+4), uint32(len(payload)+4))
	_, err := w.Write(append(frame, payload...))
	return err
}

// ReadFrame receives one EPP data unit. The payload grows as its bytes
// arrive, so a header claiming a large frame reserves nothing by itself; a
// frame that ends before its claimed length is io.ErrUnexpectedEOF.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	total := binary.BigEndian.Uint32(hdr[:])
	if total < 4 || total > maxFrame {
		return nil, fmt.Errorf("epp: bad frame length %d", total)
	}
	payload, err := io.ReadAll(io.LimitReader(r, int64(total-4)))
	if err != nil {
		return nil, err
	}
	if len(payload) < int(total-4) {
		return nil, io.ErrUnexpectedEOF
	}
	return payload, nil
}

// ---------------------------------------------------------------- documents

// Epp is the root element of every EPP document.
type Epp struct {
	XMLName  xml.Name  `xml:"epp"`
	Greeting *Greeting `xml:"greeting,omitempty"`
	Command  *Command  `xml:"command,omitempty"`
	Response *Response `xml:"response,omitempty"`
}

// Greeting is the server hello (RFC 5730 section 2.4).
type Greeting struct {
	SvID     string   `xml:"svID"`
	Services []string `xml:"svcMenu>objURI"`
}

// Command is a client request.
type Command struct {
	Login  *Login        `xml:"login,omitempty"`
	Logout *struct{}     `xml:"logout,omitempty"`
	Create *DomainCreate `xml:"create>domain-create,omitempty"`
	Info   *DomainRef    `xml:"info>domain-info,omitempty"`
	Delete *DomainRef    `xml:"delete>domain-delete,omitempty"`
	Renew  *DomainRef    `xml:"renew>domain-renew,omitempty"`
	Update *DomainUpdate `xml:"update>domain-update,omitempty"`
	// Extension carries the secDNS payload for create/update.
	Extension *Extension `xml:"extension,omitempty"`
	ClTRID    string     `xml:"clTRID,omitempty"`
}

// Login authenticates a registrar session (RFC 5730 section 2.9.1.1).
type Login struct {
	ClID string `xml:"clID"`
	Pw   string `xml:"pw"`
}

// DomainRef names a domain for info/delete/renew.
type DomainRef struct {
	Name string `xml:"name"`
}

// DomainCreate provisions a domain with its delegation (RFC 5731 3.2.1).
type DomainCreate struct {
	Name string   `xml:"name"`
	NS   []string `xml:"ns>hostObj"`
}

// DomainUpdate changes a delegation (RFC 5731 3.2.5). A chg element
// replaces the delegation with its NS list — a simplification of the RFC's
// add/rem dance that matches how registrar control panels behave — and
// one without nameservers is a parameter error.
type DomainUpdate struct {
	Name string     `xml:"name"`
	Chg  *DomainChg `xml:"chg,omitempty"`
}

// DomainChg is the new delegation of an update.
type DomainChg struct {
	NS []string `xml:"ns>hostObj"`
}

// Extension wraps protocol extensions; only secDNS is supported.
type Extension struct {
	SecDNS *SecDNS `xml:"secDNS-update,omitempty"`
}

// SecDNS is the RFC 5910 DS data payload. Rem removes all DS data ("urgent
// remove all" in the RFC's terms); Add supplies the new DS set.
type SecDNS struct {
	RemAll bool     `xml:"rem>all,omitempty"`
	Add    []DSData `xml:"add>dsData,omitempty"`
}

// DSData is one DS record in secDNS form.
type DSData struct {
	KeyTag     uint16 `xml:"keyTag"`
	Alg        uint8  `xml:"alg"`
	DigestType uint8  `xml:"digestType"`
	Digest     string `xml:"digest"`
}

// ToDS converts secDNS data to a wire DS record.
func (d DSData) ToDS() (*dnswire.DS, error) {
	digest, err := hex.DecodeString(strings.ToLower(strings.TrimSpace(d.Digest)))
	if err != nil {
		return nil, fmt.Errorf("epp: bad DS digest: %w", err)
	}
	return &dnswire.DS{
		KeyTag:     d.KeyTag,
		Algorithm:  dnswire.Algorithm(d.Alg),
		DigestType: dnswire.DigestType(d.DigestType),
		Digest:     digest,
	}, nil
}

// FromDS converts a wire DS record to secDNS form.
func FromDS(ds *dnswire.DS) DSData {
	return DSData{
		KeyTag:     ds.KeyTag,
		Alg:        uint8(ds.Algorithm),
		DigestType: uint8(ds.DigestType),
		Digest:     strings.ToUpper(hex.EncodeToString(ds.Digest)),
	}
}

// Response is a server reply.
type Response struct {
	Result  Result      `xml:"result"`
	ResData *DomainInfo `xml:"resData>domain-info,omitempty"`
	ClTRID  string      `xml:"trID>clTRID,omitempty"`
	SvTRID  string      `xml:"trID>svTRID,omitempty"`
}

// Result carries the RFC 5730 result code and message.
type Result struct {
	Code int    `xml:"code,attr"`
	Msg  string `xml:"msg"`
}

// OK reports a successful (1xxx) result.
func (r Result) OK() bool { return r.Code >= 1000 && r.Code < 2000 }

// DomainInfo is the info response payload.
type DomainInfo struct {
	Name    string   `xml:"name"`
	ClID    string   `xml:"clID"`
	NS      []string `xml:"ns>hostObj"`
	DS      []DSData `xml:"secDNS>dsData,omitempty"`
	Created string   `xml:"crDate,omitempty"`
	Expires string   `xml:"exDate,omitempty"`
}

// Marshal renders an EPP document with the XML declaration.
func Marshal(doc *Epp) ([]byte, error) {
	body, err := xml.Marshal(doc)
	if err != nil {
		return nil, err
	}
	return append([]byte(xml.Header), body...), nil
}

// Unmarshal parses an EPP document.
func Unmarshal(b []byte) (*Epp, error) {
	var doc Epp
	if err := xml.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("epp: %w", err)
	}
	return &doc, nil
}
