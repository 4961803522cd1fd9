// Package probe implements the paper's hands-on registrar methodology
// (section 5.1): buy a domain from a registrar, try to deploy DNSSEC with
// the registrar as DNS operator, verify the published chain, switch to an
// owner-run nameserver, convey a DS record through whatever channel the
// registrar offers, then stress the channel — upload a DS that matches no
// served key to test validation, and send the DS from a forged email
// address to test authentication.
//
// Every cell of the resulting Table 2/3 rows is an observed behaviour: the
// probe never inspects a registrar's policy configuration, only the effects
// of its actions as seen through the registry and live DNS queries.
package probe

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// Env gives the probe its view of the world: the DNS tree, whose network
// hosts the probe's own nameserver and whose root anchors its validation,
// and the registries to read delegations from.
type Env struct {
	*ecosystem.Tree
	Registries map[string]*registry.Registry
	Clock      func() simtime.Day
}

// accountEmail is the identity the probe registers with.
const accountEmail = "probe@securepki.org"

func (e *Env) now() time.Time {
	if e.Clock == nil {
		return simtime.End.Time()
	}
	return e.Clock().Time()
}

// TriState is an observation that may be untestable.
type TriState int

const (
	// Untested: the behaviour could not be exercised.
	Untested TriState = iota
	// ObservedYes and ObservedNo are test outcomes.
	ObservedYes
	ObservedNo
)

// String renders the tri-state for table output.
func (t TriState) String() string {
	switch t {
	case ObservedYes:
		return "yes"
	case ObservedNo:
		return "no"
	}
	return "-"
}

// Observation is one registrar's probe result: the raw material of a
// Table 2 / Table 3 row.
type Observation struct {
	Registrar string
	TLD       string

	// Registrar-as-DNS-operator findings.
	HostedSigned     bool              // some path produced a signed hosted zone
	HostedByDefault  bool              // signed with no customer action on the default plan
	HostedPlanGated  bool              // signed by default only on a non-default plan
	HostedNeededFee  bool              // payment was demanded
	HostedDeployment dnssec.Deployment // verified through the validating resolver
	HostedUploadsDS  bool              // the DS actually reached the registry

	// Owner-as-DNS-operator findings.
	OwnerSupported  bool
	ChannelUsed     channel.Kind
	AcceptsDNSKEY   bool
	FetchesDNSKEY   bool
	OwnerDeployment dnssec.Deployment

	// Security findings.
	RejectsBogusDS     TriState // step 7: mismatched DS upload
	RejectsForgedEmail TriState // step 8: DS from a different email address
	ChatMisapplied     bool
	MisappliedVictim   string

	Notes []string
}

func (o *Observation) note(format string, args ...any) {
	o.Notes = append(o.Notes, fmt.Sprintf(format, args...))
}

// Prober runs the methodology against registrar agents.
type Prober struct {
	Env *Env
}

// probeSeq distinguishes probe domains across probers and runs within one
// process, so repeated campaigns never collide at the registry.
var probeSeq atomic.Int64

func nextSeq() int64 { return probeSeq.Add(1) }

// New creates a prober.
func New(env *Env) *Prober { return &Prober{Env: env} }

// classify observes a domain's deployment state through registry data and
// live validated DNS — never through agent internals.
func (p *Prober) classify(ctx context.Context, domain, tld string) (dnssec.Deployment, error) {
	reg, ok := p.Env.Registries[tld].Registration(domain)
	if !ok {
		return dnssec.DeploymentNone, fmt.Errorf("probe: %s not registered", domain)
	}
	res, chain, err := p.Env.ValidatingAt(p.Env.now).Lookup(ctx, domain, dnswire.TypeDNSKEY)
	if err != nil {
		return dnssec.DeploymentNone, err
	}
	hasKey := len(res.RRSet(domain, dnswire.TypeDNSKEY).RRs) > 0
	return dnssec.Classify(hasKey, len(reg.DS) > 0, chain.Status == dnssec.Secure), nil
}

// pickTLD chooses the TLD to probe: .com when offered, else the first TLD
// for which a registry exists.
func (p *Prober) pickTLD(r *registrar.Registrar) (string, error) {
	if r.RoleFor("com").Kind != registrar.RoleNone {
		if _, ok := p.Env.Registries["com"]; ok {
			return "com", nil
		}
	}
	for tld := range p.Env.Registries {
		if r.RoleFor(tld).Kind != registrar.RoleNone {
			return tld, nil
		}
	}
	return "", fmt.Errorf("probe: registrar %s offers no TLD we have a registry for", r.Name)
}

// ownNameserver deploys the probe's own signed authoritative nameserver for
// domain and returns its hostname, signer and correct DS.
func (p *Prober) ownNameserver(domain string) (string, *zone.Signer, *dnswire.DS, error) {
	host := fmt.Sprintf("ns1.probe%d.securepki.org", nextSeq())
	z := zone.New(domain)
	z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.SOA{
		MName: host, RName: "hostmaster." + domain,
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.NS{Host: host}))
	signer, err := zone.NewSigner(dnswire.AlgED25519, p.Env.now())
	if err != nil {
		return "", nil, nil, err
	}
	signer.Expiration = p.Env.now().AddDate(2, 0, 0)
	if err := signer.Sign(z); err != nil {
		return "", nil, nil, err
	}
	srv := dnsserver.NewAuthoritative()
	srv.AddZone(z)
	p.Env.Net.Register(host, srv)
	dss, err := signer.DSRecords(domain, dnswire.DigestSHA256)
	if err != nil {
		return "", nil, nil, err
	}
	return host, signer, dss[0], nil
}

// Run executes the full eight-step methodology against one registrar.
// ctx bounds every DNS lookup and channel interaction the probe performs —
// both the prober's own classification queries and the registrar-side
// fetch/validation lookups triggered through the channels.
func (p *Prober) Run(ctx context.Context, r *registrar.Registrar) (*Observation, error) {
	obs := &Observation{Registrar: r.Name}
	tld, err := p.pickTLD(r)
	if err != nil {
		return nil, err
	}
	obs.TLD = tld
	account := accountEmail
	r.CreateAccount(account)
	domain := fmt.Sprintf("rsprobe%d.%s", nextSeq(), tld)

	// Step 1: purchase with registrar hosting on the default plan.
	if err := r.Purchase(account, domain, ""); err != nil {
		return nil, fmt.Errorf("probe: purchasing %s at %s: %w", domain, r.Name, err)
	}

	// Step 2: is DNSSEC on by default? Otherwise, can we turn it on?
	dep, err := p.classify(ctx, domain, tld)
	if err != nil {
		return nil, err
	}
	if dep == dnssec.DeploymentFull || dep == dnssec.DeploymentPartial {
		obs.HostedSigned = true
		obs.HostedByDefault = true
	} else {
		if err := r.EnableHostedDNSSEC(account, domain, false); err == nil {
			obs.HostedSigned = true
			obs.note("DNSSEC is opt-in for hosted domains")
		} else if errors.Is(err, registrar.ErrPaymentRequired) {
			obs.HostedNeededFee = true
			if err := r.EnableHostedDNSSEC(account, domain, true); err == nil {
				obs.HostedSigned = true
				obs.note("DNSSEC sold as a paid add-on")
			}
		} else if errors.Is(err, registrar.ErrNotSupported) {
			// Maybe another advertised plan includes DNSSEC (NameCheap).
			for _, plan := range r.Plans() {
				if plan == "" {
					continue
				}
				alt := fmt.Sprintf("rsprobe%d.%s", nextSeq(), tld)
				if err := r.Purchase(account, alt, plan); err != nil {
					continue
				}
				if altDep, err := p.classify(ctx, alt, tld); err == nil &&
					(altDep == dnssec.DeploymentFull || altDep == dnssec.DeploymentPartial) {
					obs.HostedSigned = true
					obs.HostedPlanGated = true
					obs.note("DNSSEC by default only on plan %q", plan)
					domain = alt // continue the probe with the signed domain
					break
				}
			}
		}
	}

	// Step 3: verify what was actually deployed.
	if obs.HostedSigned {
		dep, err := p.classify(ctx, domain, tld)
		if err != nil {
			return nil, err
		}
		obs.HostedDeployment = dep
		obs.HostedUploadsDS = dep == dnssec.DeploymentFull || dep == dnssec.DeploymentBroken
		if dep == dnssec.DeploymentPartial {
			obs.note("hosted zone signed but DS never uploaded (partial deployment)")
		}
	}

	// Step 4: switch to our own nameserver, correctly signed.
	host, signer, goodDS, err := p.ownNameserver(domain)
	if err != nil {
		return nil, err
	}
	if err := r.UseExternalNameservers(account, domain, []string{host}); err != nil {
		obs.note("cannot switch to external nameservers: %v", err)
		return obs, nil
	}

	// Steps 5-6: convey the DS through each channel until one works, then
	// verify end to end.
	bogus := &dnswire.DS{
		KeyTag: goodDS.KeyTag + 1, Algorithm: goodDS.Algorithm,
		DigestType: goodDS.DigestType, Digest: make([]byte, len(goodDS.Digest)),
	}
	type attempt struct {
		kind   channel.Kind
		good   func() error
		bogus  func() error // nil if the channel cannot carry a bogus DS
		forged func() error // nil unless the channel is email
	}
	acct := r.CreateAccount(account) // fetch existing for the security code
	attempts := []attempt{
		{
			kind:  channel.Web,
			good:  func() error { return r.SubmitDSWeb(ctx, account, domain, goodDS) },
			bogus: func() error { return r.SubmitDSWeb(ctx, account, domain, bogus) },
		},
		{
			kind: channel.Email,
			good: func() error {
				return r.HandleSupportEmail(ctx, channel.EmailMessage{
					From: account, Subject: domain,
					Body:     channel.FormatDS(domain, goodDS),
					AuthCode: acct.SecurityCode,
				})
			},
			bogus: func() error {
				return r.HandleSupportEmail(ctx, channel.EmailMessage{
					From: account, Subject: domain,
					Body:     channel.FormatDS(domain, bogus),
					AuthCode: acct.SecurityCode,
				})
			},
			forged: func() error {
				// Step 8: same payload, different sender, no code — the
				// paper's forged-email test.
				return r.HandleSupportEmail(ctx, channel.EmailMessage{
					From: "someone-else@attacker.example", Subject: domain,
					Body: channel.FormatDS(domain, goodDS),
				})
			},
		},
		{
			kind: channel.Ticket,
			good: func() error {
				return r.HandleTicket(ctx, channel.TicketMessage{
					AccountEmail: account, Domain: domain,
					Body: "please install my DS:\n" + channel.FormatDS(domain, goodDS),
				})
			},
			bogus: func() error {
				return r.HandleTicket(ctx, channel.TicketMessage{
					AccountEmail: account, Domain: domain,
					Body: channel.FormatDS(domain, bogus),
				})
			},
		},
		{
			kind: channel.Chat,
			good: func() error {
				out, err := r.ChatUploadDS(ctx, account, domain, goodDS)
				if err == nil && out.Misapplied {
					obs.ChatMisapplied = true
					obs.MisappliedVictim = out.AppliedDomain
					obs.note("chat agent installed our DS on %s", out.AppliedDomain)
					return fmt.Errorf("probe: DS applied to wrong domain")
				}
				return err
			},
			bogus: func() error {
				out, err := r.ChatUploadDS(ctx, account, domain, bogus)
				if err == nil && out.Misapplied {
					return fmt.Errorf("probe: bogus DS applied to wrong domain")
				}
				return err
			},
		},
	}
	var used *attempt
	for i := range attempts {
		if err := attempts[i].good(); err == nil {
			used = &attempts[i]
			obs.ChannelUsed = attempts[i].kind
			break
		}
	}
	// Registrar-side alternatives to uploading a DS.
	if used == nil {
		if err := r.SubmitDNSKEYWeb(ctx, account, domain, signer.KSK.DNSKEY()); err == nil {
			obs.AcceptsDNSKEY = true
			obs.ChannelUsed = channel.Web
			obs.note("accepts DNSKEY uploads and derives the DS itself")
		} else if err := r.RequestDSFetch(ctx, account, domain); err == nil {
			obs.FetchesDNSKEY = true
			obs.ChannelUsed = channel.Web
			obs.note("fetches our DNSKEY and generates the DS itself")
		}
	}
	obs.OwnerSupported = used != nil || obs.AcceptsDNSKEY || obs.FetchesDNSKEY
	if !obs.OwnerSupported {
		obs.note("no way to convey a DS record; owner-operated DNSSEC impossible")
		return obs, nil
	}
	dep, err = p.classify(ctx, domain, tld)
	if err != nil {
		return nil, err
	}
	obs.OwnerDeployment = dep

	// Step 7: upload a DS matching nothing we serve.
	if used != nil && used.bogus != nil {
		if err := used.bogus(); err == nil {
			obs.RejectsBogusDS = ObservedNo
			obs.note("accepted a DS record that matches no served DNSKEY")
			// Repair, as the authors did for their own domains.
			_ = used.good()
		} else {
			obs.RejectsBogusDS = ObservedYes
		}
	} else if obs.FetchesDNSKEY {
		// The fetch flow cannot carry a bogus DS by construction.
		obs.RejectsBogusDS = ObservedYes
		obs.note("DS derived registrar-side; bogus upload impossible")
	}

	// Step 8: forged-sender email.
	if used != nil && used.forged != nil {
		if err := used.forged(); err == nil {
			obs.RejectsForgedEmail = ObservedNo
			obs.note("accepted a DS from an address that never registered the domain")
		} else {
			obs.RejectsForgedEmail = ObservedYes
		}
	}
	return obs, nil
}

// RunAll probes each registrar, collecting observations; individual
// failures are recorded as notes rather than aborting the campaign.
func (p *Prober) RunAll(ctx context.Context, regs []*registrar.Registrar) []*Observation {
	out := make([]*Observation, 0, len(regs))
	for _, r := range regs {
		obs, err := p.Run(ctx, r)
		if err != nil {
			obs = &Observation{Registrar: r.Name}
			obs.note("probe failed: %v", err)
		}
		out = append(out, obs)
	}
	return out
}
