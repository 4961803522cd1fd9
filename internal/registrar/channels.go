package registrar

import (
	"context"
	"fmt"
	"strings"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
)

// This file implements the customer-facing DS-upload channels for domains
// whose owner runs the nameservers (paper sections 5.3 and 6.1): web forms,
// DNSKEY uploads, registrar-side DNSKEY fetching, email, support tickets
// and live chat — each with the validation and authentication behaviour
// the study measured.

// SubmitDSWeb uploads a DS record through the registrar's web form. Only
// two of the twelve web forms in the study validated the record; the rest
// accept arbitrary bytes, which a validating resolver will then treat as a
// bogus chain — taking the whole domain offline for DNSSEC-aware clients.
func (r *Registrar) SubmitDSWeb(ctx context.Context, accountEmail, name string, ds *dnswire.DS) error {
	if !r.OwnerDNSSEC || r.DSChannel != channel.Web {
		return fmt.Errorf("%w: no web DS form", ErrNotSupported)
	}
	if r.AcceptsDNSKEY {
		// Amazon-style form: it asks for the DNSKEY and derives the DS
		// itself; raw DS records are not accepted anywhere.
		return fmt.Errorf("%w: form accepts DNSKEY, not DS", ErrNotSupported)
	}
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return err
	}
	return r.installDS(ctx, d, []*dnswire.DS{ds}, r.ValidatesDS)
}

// SubmitDNSKEYWeb uploads a DNSKEY from which the registrar derives the DS
// itself (Amazon's approach). The derivation cannot produce a malformed DS,
// but nothing checks that the key is actually served — the paper calls this
// "not perfect".
func (r *Registrar) SubmitDNSKEYWeb(ctx context.Context, accountEmail, name string, dk *dnswire.DNSKEY) error {
	if !r.OwnerDNSSEC || !r.AcceptsDNSKEY {
		return fmt.Errorf("%w: no DNSKEY upload", ErrNotSupported)
	}
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return err
	}
	ds, err := dnssec.ComputeDS(d.Name, dk, dnswire.DigestSHA256)
	if err != nil {
		return fmt.Errorf("registrar: deriving DS: %w", err)
	}
	return r.installDS(ctx, d, []*dnswire.DS{ds}, false)
}

// RequestDSFetch asks the registrar to fetch the domain's DNSKEY from its
// nameservers and derive and publish the DS itself — PCExtreme's flow,
// which the paper singles out as the least error-prone (section 8,
// recommendation 3). It only bootstraps the first DS; key rollovers go
// through email, with that channel's weaknesses.
func (r *Registrar) RequestDSFetch(ctx context.Context, accountEmail, name string) error {
	if !r.OwnerDNSSEC || !r.FetchesDNSKEY {
		return fmt.Errorf("%w: no DS fetch flow", ErrNotSupported)
	}
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return err
	}
	if d.Hosted {
		return ErrHosted
	}
	path, err := r.regPathFor(d.TLD)
	if err != nil {
		return err
	}
	if reg, ok := path.reg.Registration(d.Name); ok && len(reg.DS) > 0 {
		return fmt.Errorf("%w: DS already present; rollovers require email", ErrNotSupported)
	}
	keys := r.fetchDNSKEYs(ctx, d.Name, d.ExternalNS).Keys()
	if len(keys) == 0 {
		return fmt.Errorf("%w: no DNSKEY served", ErrDSRejected)
	}
	var dss []*dnswire.DS
	for _, dk := range keys {
		if !dk.IsSEP() {
			continue
		}
		ds, err := dnssec.ComputeDS(d.Name, dk, dnswire.DigestSHA256)
		if err != nil {
			return err
		}
		dss = append(dss, ds)
	}
	if len(dss) == 0 {
		// No SEP-flagged key; fall back to all keys.
		for _, dk := range keys {
			ds, err := dnssec.ComputeDS(d.Name, dk, dnswire.DigestSHA256)
			if err != nil {
				return err
			}
			dss = append(dss, ds)
		}
	}
	return r.installDS(ctx, d, dss, false)
}

// HandleSupportEmail processes an emailed DS record. The authentication
// applied is exactly the registrar's EmailAuth policy; two of the studied
// registrars applied none, and one accepted mail from an address that had
// never registered the domain.
func (r *Registrar) HandleSupportEmail(ctx context.Context, msg channel.EmailMessage) error {
	if !r.OwnerDNSSEC || r.DSChannel != channel.Email {
		return fmt.Errorf("%w: email DS submission not offered", ErrNotSupported)
	}
	name := dnswire.CanonicalName(strings.TrimSpace(msg.Subject))
	r.mu.RLock()
	d, ok := r.domains[name]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchDomain, name)
	}
	switch r.EmailAuth {
	case EmailAuthAddress:
		if !strings.EqualFold(msg.From, d.AccountEmail) {
			return fmt.Errorf("%w: sender %s is not the registrant", ErrEmailRejected, msg.From)
		}
	case EmailAuthCode:
		a, err := r.account(d.AccountEmail)
		if err != nil {
			return err
		}
		if msg.AuthCode != a.SecurityCode {
			return fmt.Errorf("%w: missing or wrong security code", ErrEmailRejected)
		}
	case EmailAuthNone:
		// Accept anything — the vulnerability the paper disclosed.
	}
	ds, err := channel.ParseDSFromText(msg.Body)
	if err != nil {
		return err
	}
	return r.installDS(ctx, d, []*dnswire.DS{ds}, r.ValidatesDS)
}

// HandleTicket processes a DS record attached to a support ticket
// (123-reg's flow). Tickets are opened from the authenticated control
// panel, so ownership is verified; validation still follows policy.
func (r *Registrar) HandleTicket(ctx context.Context, t channel.TicketMessage) error {
	if !r.OwnerDNSSEC || r.DSChannel != channel.Ticket {
		return fmt.Errorf("%w: ticket DS submission not offered", ErrNotSupported)
	}
	d, err := r.domain(t.AccountEmail, t.Domain)
	if err != nil {
		return err
	}
	ds, err := channel.ParseDSFromText(t.Body)
	if err != nil {
		return err
	}
	return r.installDS(ctx, d, []*dnswire.DS{ds}, r.ValidatesDS)
}

// BootstrapDS implements the Cloudflare/CIRA third-party-operator draft
// (operator.RegistrarBootstrapAPI): a DNS operator asks the registrar to
// install a DS directly, cutting the customer out of the relay. Unlike the
// human channels, the draft mandates verification: the DS must match a
// DNSKEY actually served by the domain's delegated nameservers.
func (r *Registrar) BootstrapDS(ctx context.Context, name string, ds *dnswire.DS) error {
	name = dnswire.CanonicalName(name)
	r.mu.RLock()
	d, ok := r.domains[name]
	r.mu.RUnlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchDomain, name)
	}
	return r.installDS(ctx, d, []*dnswire.DS{ds}, true)
}

// ChatUploadDS pastes a DS record into a live-chat session (HostGator's
// flow). The returned outcome reveals whether the agent installed it on the
// intended domain — the paper's probe discovered an agent applying a DS to
// an unrelated customer's domain.
func (r *Registrar) ChatUploadDS(ctx context.Context, accountEmail, name string, ds *dnswire.DS) (channel.Outcome, error) {
	if !r.OwnerDNSSEC || r.DSChannel != channel.Chat {
		return channel.Outcome{}, fmt.Errorf("%w: chat DS submission not offered", ErrNotSupported)
	}
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return channel.Outcome{}, err
	}
	session := &channel.ChatSession{
		ErrorRate:    r.ChatErrorRate,
		Rng:          r.deps.Rng,
		OtherDomains: r.DomainNames(),
	}
	outcome := session.Submit(d.Name, ds)
	target := d
	if outcome.Misapplied {
		r.mu.RLock()
		victim := r.domains[outcome.AppliedDomain]
		r.mu.RUnlock()
		if victim != nil {
			target = victim
		} else {
			outcome = channel.Outcome{AppliedDomain: d.Name}
		}
	}
	// Chat agents re-type records by hand; no validation happens.
	if target.Hosted {
		// The agent force-installs at the registry even for hosted domains
		// (that is what makes the misapply so damaging).
		path, err := r.regPathFor(target.TLD)
		if err != nil {
			return outcome, err
		}
		return outcome, path.setDS(target.Name, []*dnswire.DS{ds})
	}
	return outcome, r.installDS(ctx, target, []*dnswire.DS{ds}, false)
}
