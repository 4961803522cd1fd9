// Package channel models the out-of-band mechanisms customers use to convey
// DS records to registrars: web forms, email, support tickets, live chat
// and phone dictation. The paper (sections 5.3 and 6.4) finds these
// channels to be the weak links of DNSSEC deployment — most registrars do
// not validate uploaded DS records, several accept unauthenticated email,
// one installed a DS record on the wrong customer's domain during a chat
// session, and a transcription error over the phone once broke isoc.org.
//
// Each channel carries a DS record payload in presentation form plus the
// metadata a registrar's backend would see (claimed sender, account
// binding, etc.). The failure modes are modeled explicitly and
// deterministically seeded so experiments reproduce.
package channel

import (
	"errors"
	"fmt"
	"math/rand"
	"regexp"
	"strings"

	"securepki.org/registrarsec/internal/dnswire"
)

// Kind enumerates DS-upload channels. The zero Kind is none: the registrar
// offers no way to convey a DS record.
type Kind int

const (
	// Web: an HTTPS form on the registrar's control panel.
	Web Kind = iota + 1
	// Email: the customer emails the DS record to support.
	Email
	// Ticket: the customer attaches the DS record to a support ticket.
	Ticket
	// Chat: the customer pastes the DS record into a live-chat window.
	Chat
	// Phone: the customer dictates the DS record over the phone.
	Phone
)

// String names the channel.
func (k Kind) String() string {
	switch k {
	case Web:
		return "web"
	case Email:
		return "email"
	case Ticket:
		return "ticket"
	case Chat:
		return "chat"
	case Phone:
		return "phone"
	}
	return "none"
}

// EmailMessage is a minimal email with the property that matters for the
// study: the From header is attacker-controlled (SMTP does not authenticate
// it), while the registrar may or may not check it against the account on
// file.
type EmailMessage struct {
	// From is the claimed sender address; trivially forgeable.
	From string
	// To is the registrar support address.
	To string
	// Subject typically names the domain.
	Subject string
	// Body carries the DS record in presentation form.
	Body string
	// AuthCode is an optional account-bound security code some registrars
	// require (the one registrar in section 6.4 that verified email).
	AuthCode string
}

// TicketMessage is a support-ticket submission. Tickets are opened from
// inside the authenticated control panel, so the account binding is
// trustworthy — but the payload is still free text that a human processes.
type TicketMessage struct {
	AccountEmail string
	Domain       string
	Body         string
}

// dsPattern matches a DS record in presentation form inside free text:
// keytag algorithm digesttype hexdigest.
var dsPattern = regexp.MustCompile(`(?m)(\d{1,5})\s+(\d{1,3})\s+(\d{1,3})\s+([0-9A-Fa-f\s]{20,})`)

// ErrNoDS reports that no DS record could be recognized in a message body.
var ErrNoDS = errors.New("channel: no DS record found in message")

// ParseDSFromText extracts the first DS record found in free text, the way
// a registrar backend (or human agent) would read one out of an email or
// chat transcript.
func ParseDSFromText(text string) (*dnswire.DS, error) {
	m := dsPattern.FindStringSubmatch(text)
	if m == nil {
		return nil, ErrNoDS
	}
	var tag, alg, dt int
	fmt.Sscanf(m[1], "%d", &tag)
	fmt.Sscanf(m[2], "%d", &alg)
	fmt.Sscanf(m[3], "%d", &dt)
	hexStr := strings.Map(func(r rune) rune {
		if r == ' ' || r == '\n' || r == '\t' || r == '\r' {
			return -1
		}
		return r
	}, m[4])
	if len(hexStr)%2 == 1 {
		hexStr = hexStr[:len(hexStr)-1]
	}
	digest := make([]byte, len(hexStr)/2)
	if _, err := fmt.Sscanf(hexStr, "%x", &digest); err != nil {
		return nil, fmt.Errorf("channel: bad DS digest: %w", err)
	}
	if tag > 0xffff || alg > 0xff || dt > 0xff {
		return nil, fmt.Errorf("channel: DS fields out of range")
	}
	return &dnswire.DS{
		KeyTag:     uint16(tag),
		Algorithm:  dnswire.Algorithm(alg),
		DigestType: dnswire.DigestType(dt),
		Digest:     digest,
	}, nil
}

// FormatDS renders a DS record the way a customer would paste it.
func FormatDS(domain string, ds *dnswire.DS) string {
	return fmt.Sprintf("%s. IN DS %s", domain, ds.String())
}

// ChatSession models a live-chat with a human support agent. The paper
// observed an agent install a probe's DS record on an unrelated customer's
// domain; ErrorRate reproduces that class of mistake.
type ChatSession struct {
	// ErrorRate is the per-interaction probability that the agent applies
	// the DS to the wrong domain.
	ErrorRate float64
	// Rng drives the error model; required so runs are reproducible.
	Rng *rand.Rand
	// OtherDomains is the pool the agent can mis-target.
	OtherDomains []string
}

// Outcome describes what the agent actually did with the DS record.
type Outcome struct {
	// AppliedDomain is the domain the DS was installed on — possibly not
	// the one the customer asked about.
	AppliedDomain string
	// Misapplied is set when AppliedDomain differs from the request.
	Misapplied bool
}

// Submit hands a DS record to the agent for the given domain.
func (c *ChatSession) Submit(domain string, ds *dnswire.DS) Outcome {
	if c.Rng != nil && c.Rng.Float64() < c.ErrorRate {
		// The agent confuses the ticket with another customer's: pick a
		// uniformly random domain that is not the requested one.
		candidates := make([]string, 0, len(c.OtherDomains))
		for _, d := range c.OtherDomains {
			if d != domain {
				candidates = append(candidates, d)
			}
		}
		if len(candidates) > 0 {
			return Outcome{AppliedDomain: candidates[c.Rng.Intn(len(candidates))], Misapplied: true}
		}
	}
	return Outcome{AppliedDomain: domain}
}
