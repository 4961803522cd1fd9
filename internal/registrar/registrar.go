// Package registrar models domain registrars as behavioural agents with the
// DNSSEC policies the paper catalogues in Tables 2 and 3: whether they sign
// hosted zones (by default, opt-in, for a fee, or not at all), which TLDs
// they publish DS records for, how customers can convey DS records for
// externally hosted domains (web form, email, support ticket, live chat),
// whether uploaded DS records are validated against the served DNSKEYs, and
// whether email submissions are authenticated.
//
// A Registrar is exercised exactly like the paper exercised real ones: by
// purchasing domains, toggling DNSSEC, switching nameservers and pushing DS
// records through its channels (package probe). Nothing in the probe reads
// the policy struct back — every table cell is an observed behaviour.
package registrar

import (
	"context"
	crand "crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/epp"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// Errors returned by registrar operations.
var (
	ErrNotSupported    = errors.New("registrar: operation not supported by this registrar")
	ErrNoSuchAccount   = errors.New("registrar: no such account")
	ErrNoSuchDomain    = errors.New("registrar: no such domain")
	ErrNotYourDomain   = errors.New("registrar: domain belongs to another account")
	ErrTLDNotOffered   = errors.New("registrar: TLD not offered")
	ErrPaymentRequired = errors.New("registrar: DNSSEC requires the paid add-on")
	ErrDSRejected      = errors.New("registrar: DS record failed validation")
	ErrEmailRejected   = errors.New("registrar: email failed authentication")
	ErrNotHosted       = errors.New("registrar: domain does not use registrar DNS")
	ErrHosted          = errors.New("registrar: domain uses registrar DNS")
	ErrPartnerDeclined = errors.New("registrar: partner registrar does not support the operation")
)

// SupportLevel describes a registrar's DNSSEC posture for hosted domains.
type SupportLevel int

const (
	// SupportNone: the registrar cannot sign hosted zones (17 of the top 20
	// registrars in Table 2).
	SupportNone SupportLevel = iota
	// SupportOptIn: free, but the customer must enable it (OVH).
	SupportOptIn
	// SupportPaid: DNSSEC is a paid add-on (GoDaddy, $35/year).
	SupportPaid
	// SupportDefault: zones are signed automatically (most of Table 3).
	SupportDefault
	// SupportDefaultSomePlans: signed by default only on certain DNS plans
	// (NameCheap).
	SupportDefaultSomePlans
)

// String names the support level.
func (s SupportLevel) String() string {
	switch s {
	case SupportOptIn:
		return "opt-in"
	case SupportPaid:
		return "paid"
	case SupportDefault:
		return "default"
	case SupportDefaultSomePlans:
		return "default-some-plans"
	}
	return "none"
}

// EmailAuthLevel describes how a registrar authenticates emailed DS records
// (section 6.4).
type EmailAuthLevel int

const (
	// EmailAuthNone: any email is accepted — even from an address other
	// than the account's (the worst finding).
	EmailAuthNone EmailAuthLevel = iota
	// EmailAuthAddress: the From header must match the account email.
	// Still forgeable, but blocks the trivial attack.
	EmailAuthAddress
	// EmailAuthCode: a security code bound to the account must be quoted.
	EmailAuthCode
)

// RoleKind is a registrar's standing for one TLD.
type RoleKind int

const (
	// RoleNone: the TLD is not offered.
	RoleNone RoleKind = iota
	// RoleRegistrar: accredited, with direct registry access.
	RoleRegistrar
	// RoleReseller: sells through a partner registrar who holds the
	// accreditation.
	RoleReseller
)

// Role is the per-TLD standing, naming the partner for resellers.
type Role struct {
	Kind    RoleKind
	Partner string // registrar ID of the accredited partner
}

// Policy is the complete behavioural configuration of a registrar,
// mirroring the columns of Tables 2-4.
type Policy struct {
	// ID is the stable identifier (used for registry accreditation).
	ID string
	// Name is the display name ("GoDaddy").
	Name string
	// NSHosts are the registrar's hosting nameservers
	// ("ns01.domaincontrol.com", ...). Their second-level domain is what
	// the measurement groups by.
	NSHosts []string

	// HostedDNSSEC is the signing posture for registrar-hosted domains.
	HostedDNSSEC SupportLevel
	// DNSSECFee is the yearly fee when HostedDNSSEC is SupportPaid.
	DNSSECFee float64
	// DNSSECPlans marks which plans sign by default under
	// SupportDefaultSomePlans.
	DNSSECPlans map[string]bool
	// DefaultPlan is assigned when a purchase names no plan.
	DefaultPlan string
	// PublishDSTLDs restricts the TLDs for which the registrar uploads DS
	// records for zones it signs; nil means all TLDs it can reach. (Loopia
	// signs everything but only publishes DS for .se — Table 3.)
	PublishDSTLDs map[string]bool

	// OwnerDNSSEC is whether DS upload is possible at all when the owner
	// runs the nameservers.
	OwnerDNSSEC bool
	// DSChannel is how the DS record is conveyed.
	DSChannel channel.Kind
	// ValidatesDS: check an uploaded DS against the served DNSKEYs before
	// accepting it (only OVH, DreamHost and PCExtreme did).
	ValidatesDS bool
	// AcceptsDNSKEY: the customer uploads a DNSKEY and the registrar
	// derives the DS itself (Amazon).
	AcceptsDNSKEY bool
	// FetchesDNSKEY: the customer merely requests DNSSEC and the registrar
	// fetches the DNSKEY from the domain's nameservers (PCExtreme).
	FetchesDNSKEY bool
	// EmailAuth is the authentication applied to emailed DS records.
	EmailAuth EmailAuthLevel
	// ChatErrorRate is the probability a chat agent installs the DS on the
	// wrong domain.
	ChatErrorRate float64

	// Roles maps TLD → standing.
	Roles map[string]Role
	// DSSupportFrom is the first simulation day this registrar can pass DS
	// records to registries at all; before it, uploads fail (KeySystems
	// "enabled DNSSEC at a later date"). Zero means always.
	DSSupportFrom simtime.Day
}

// algorithm signs every zone a registrar hosts.
const algorithm = dnswire.AlgED25519

// Account is one customer relationship.
type Account struct {
	Email string
	// SecurityCode is the account-bound code used by EmailAuthCode.
	SecurityCode string
	// Paid records purchased add-ons, keyed by "dnssec:<domain>".
	Paid map[string]bool
}

// Domain is one domain under management.
type Domain struct {
	Name         string
	TLD          string
	AccountEmail string
	Plan         string
	// Hosted is true while the registrar runs the authoritative DNS.
	Hosted bool
	// ExternalNS holds the owner's nameservers when not hosted.
	ExternalNS []string
	// DNSSECOn tracks hosted-zone signing state.
	DNSSECOn bool

	zone   *zone.Zone
	signer *zone.Signer
}

// Deps are the registrar's connections to the outside world.
type Deps struct {
	// Registries are the registries per TLD where the registrar is
	// accredited; it writes to them only through EPP sessions.
	Registries map[string]*registry.Registry
	// Net carries the registrar's DNSKEY-fetching and validation queries
	// and hosts its nameservers.
	Net *dnsserver.MemNet
	// Clock supplies the simulation day.
	Clock func() simtime.Day
	// Rng drives the chat-agent error model (seeded per registrar).
	Rng *rand.Rand
}

// Registrar is a behavioural registrar agent.
type Registrar struct {
	Policy
	deps Deps
	// password is the registrar's EPP login at the registries it is
	// accredited at.
	password string

	mu       sync.RWMutex
	accounts map[string]*Account
	domains  map[string]*Domain
	partners map[string]*Registrar // tld -> partner agent

	srv *dnsserver.Authoritative
}

// New creates a registrar, registers its hosting nameservers on the
// network, and requests accreditation at every registry it is a registrar
// for.
func New(p Policy, deps Deps) (*Registrar, error) {
	if deps.Clock == nil {
		deps.Clock = func() simtime.Day { return simtime.GTLDStart }
	}
	if deps.Rng == nil {
		deps.Rng = rand.New(rand.NewSource(int64(len(p.ID)) + 7919))
	}
	if len(p.NSHosts) == 0 {
		return nil, fmt.Errorf("registrar %s: no nameserver hosts", p.ID)
	}
	r := &Registrar{
		Policy:   p,
		deps:     deps,
		accounts: make(map[string]*Account),
		domains:  make(map[string]*Domain),
		partners: make(map[string]*Registrar),
		srv:      dnsserver.NewAuthoritative(),
		password: newPassword(),
	}
	for _, host := range p.NSHosts {
		deps.Net.Register(host, r.srv)
	}
	for tld, role := range p.Roles {
		if role.Kind == RoleRegistrar {
			reg, ok := deps.Registries[tld]
			if !ok {
				return nil, fmt.Errorf("registrar %s: no registry for .%s", p.ID, tld)
			}
			reg.Accredit(p.ID, r.password)
		}
	}
	return r, nil
}

// newPassword draws a registrar's EPP password from crypto/rand, never
// from Deps.Rng: that stream feeds the chat desk's error model and the
// DNSKEY query IDs, so a draw here would shift Table 2.
func newPassword() string {
	var b [16]byte
	if _, err := crand.Read(b[:]); err != nil {
		panic(err)
	}
	return hex.EncodeToString(b[:])
}

// SetPartner wires the reseller relationship for one TLD; called by the
// world builder after all registrars exist.
func (r *Registrar) SetPartner(tld string, partner *Registrar) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.partners[tld] = partner
}

// now returns the wall-clock simulation time.
func (r *Registrar) now() time.Time { return r.deps.Clock().Time() }

// regPath resolves how this registrar reaches the registry for a TLD: the
// registry plus the accredited registrar that acts there (itself, or the
// end of its partner chain). The error reports an unreachable TLD.
type regPath struct {
	reg *registry.Registry
	// actor is the accredited registrar that logs in at the registry.
	actor *Registrar
	// chain are the registrars traversed (self first), used to apply each
	// hop's DS-capability gate.
	chain []*Registrar
}

func (r *Registrar) regPathFor(tld string) (*regPath, error) {
	seen := map[string]bool{}
	cur := r
	path := &regPath{}
	for {
		if seen[cur.ID] {
			return nil, fmt.Errorf("registrar %s: partner cycle at %s", r.ID, cur.ID)
		}
		seen[cur.ID] = true
		path.chain = append(path.chain, cur)
		role, ok := cur.Roles[tld]
		if !ok || role.Kind == RoleNone {
			return nil, fmt.Errorf("%w: %s via %s", ErrTLDNotOffered, tld, cur.ID)
		}
		if role.Kind == RoleRegistrar {
			reg, ok := cur.deps.Registries[tld]
			if !ok {
				return nil, fmt.Errorf("%w: %s has no registry handle for .%s", ErrTLDNotOffered, cur.ID, tld)
			}
			path.reg = reg
			path.actor = cur
			return path, nil
		}
		cur.mu.RLock()
		next := cur.partners[tld]
		cur.mu.RUnlock()
		if next == nil {
			return nil, fmt.Errorf("%w: %s has no partner for .%s", ErrTLDNotOffered, cur.ID, tld)
		}
		cur = next
	}
}

// session runs one operation at the registry in an EPP session of its own,
// logged in as the path's actor: greeting, login, op's command, logout.
func (p *regPath) session(op func(*epp.Client) error) error {
	c, err := p.reg.Dial(p.actor.ID, p.actor.password)
	if err != nil {
		return err
	}
	defer c.Close()
	return op(c)
}

// setDS replaces the domain's DS RRset at the registry.
func (p *regPath) setDS(name string, ds []*dnswire.DS) error {
	return p.session(func(c *epp.Client) error { return c.UpdateDS(name, ds) })
}

// dsCapable reports whether every hop in the path can handle DS records on
// the given day.
func (p *regPath) dsCapable(day simtime.Day) bool {
	for _, hop := range p.chain {
		if hop.DSSupportFrom != 0 && day < hop.DSSupportFrom {
			return false
		}
	}
	return true
}

// Plans lists the DNS plans the storefront advertises (the default plan
// first). Public information a probing customer can read off the website.
func (r *Registrar) Plans() []string {
	out := []string{}
	if r.DefaultPlan != "" {
		out = append(out, r.DefaultPlan)
	}
	for plan := range r.DNSSECPlans {
		if plan != r.DefaultPlan {
			out = append(out, plan)
		}
	}
	if len(out) == 0 {
		out = []string{""}
	}
	return out
}

// RoleFor answers the Table 4 survey question: is this organization a
// registrar, a reseller (and through whom), or absent for the given TLD.
func (r *Registrar) RoleFor(tld string) Role {
	role, ok := r.Roles[tld]
	if !ok {
		return Role{Kind: RoleNone}
	}
	return role
}

// CreateAccount opens a customer account.
func (r *Registrar) CreateAccount(email string) *Account {
	r.mu.Lock()
	defer r.mu.Unlock()
	if a, ok := r.accounts[email]; ok {
		return a
	}
	a := &Account{
		Email:        email,
		SecurityCode: fmt.Sprintf("%s-%04d", r.ID, len(r.accounts)+1137),
		Paid:         make(map[string]bool),
	}
	r.accounts[email] = a
	return a
}

// account looks up an account.
func (r *Registrar) account(email string) (*Account, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	a, ok := r.accounts[email]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchAccount, email)
	}
	return a, nil
}

// domain looks up a domain owned by the account.
func (r *Registrar) domain(accountEmail, name string) (*Domain, error) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	d, ok := r.domains[dnswire.CanonicalName(name)]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchDomain, name)
	}
	if d.AccountEmail != accountEmail {
		return nil, fmt.Errorf("%w: %s", ErrNotYourDomain, name)
	}
	return d, nil
}

// DomainNames lists all domains under management.
func (r *Registrar) DomainNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.domains))
	for d := range r.domains {
		out = append(out, d)
	}
	return out
}

// Purchase registers a domain with registrar-hosted DNS under the given
// plan (the registrar's default when plan is empty). DNSSEC-by-default
// policies take effect immediately, as the paper observed with the Table 3
// registrars.
func (r *Registrar) Purchase(accountEmail, name, plan string) error {
	if _, err := r.account(accountEmail); err != nil {
		return err
	}
	name = dnswire.CanonicalName(name)
	tld, _ := dnswire.Parent(name)
	path, err := r.regPathFor(tld)
	if err != nil {
		return err
	}
	if plan == "" {
		plan = r.DefaultPlan
	}
	d := &Domain{
		Name:         name,
		TLD:          tld,
		AccountEmail: accountEmail,
		Plan:         plan,
		Hosted:       true,
	}
	d.zone = r.buildHostedZone(name)
	if err := path.session(func(c *epp.Client) error { return c.CreateDomain(name, r.NSHosts, nil) }); err != nil {
		return err
	}
	r.srv.AddZone(d.zone)
	r.mu.Lock()
	r.domains[name] = d
	r.mu.Unlock()

	if r.signsByDefault(plan) {
		// Best-effort, as in the wild: a failed DS upload leaves a partial
		// deployment rather than failing the purchase.
		_ = r.enableHostedDNSSEC(d, path)
	}
	return nil
}

// signsByDefault reports whether a hosted domain on the plan gets DNSSEC
// without customer action.
func (r *Registrar) signsByDefault(plan string) bool {
	switch r.HostedDNSSEC {
	case SupportDefault:
		return true
	case SupportDefaultSomePlans:
		return r.DNSSECPlans[plan]
	}
	return false
}

// buildHostedZone creates the standard hosting zone contents.
func (r *Registrar) buildHostedZone(name string) *zone.Zone {
	z := zone.New(name)
	z.MustAdd(dnswire.NewRR(name, 3600, &dnswire.SOA{
		MName: r.NSHosts[0], RName: "hostmaster." + dnswire.SecondLevel(r.NSHosts[0]),
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	for _, host := range r.NSHosts {
		z.MustAdd(dnswire.NewRR(name, 3600, &dnswire.NS{Host: host}))
	}
	z.MustAdd(dnswire.NewRR(name, 300, &dnswire.A{Addr: netip.MustParseAddr("198.51.100.10")}))
	z.MustAdd(dnswire.NewRR("www."+name, 300, &dnswire.A{Addr: netip.MustParseAddr("198.51.100.10")}))
	return z
}

// EnableHostedDNSSEC turns on DNSSEC for a registrar-hosted domain, subject
// to the registrar's policy (opt-in, paid, unsupported).
func (r *Registrar) EnableHostedDNSSEC(accountEmail, name string, pay bool) error {
	a, err := r.account(accountEmail)
	if err != nil {
		return err
	}
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return err
	}
	if !d.Hosted {
		return ErrNotHosted
	}
	switch r.HostedDNSSEC {
	case SupportNone:
		return fmt.Errorf("%w: %s does not sign hosted zones", ErrNotSupported, r.Name)
	case SupportPaid:
		if !pay && !a.Paid["dnssec:"+name] {
			return fmt.Errorf("%w: $%.0f/year", ErrPaymentRequired, r.DNSSECFee)
		}
		a.Paid["dnssec:"+name] = true
	case SupportDefaultSomePlans:
		if !r.DNSSECPlans[d.Plan] {
			return fmt.Errorf("%w: plan %q does not include DNSSEC", ErrNotSupported, d.Plan)
		}
	}
	path, err := r.regPathFor(d.TLD)
	if err != nil {
		return err
	}
	return r.enableHostedDNSSEC(d, path)
}

// enableHostedDNSSEC signs the hosted zone and uploads the DS when policy
// and the registry path allow. A signed zone whose DS never reaches the
// registry is precisely the paper's "partial deployment".
func (r *Registrar) enableHostedDNSSEC(d *Domain, path *regPath) error {
	if d.signer == nil {
		signer, err := zone.NewSigner(algorithm, r.now())
		if err != nil {
			return err
		}
		// Hosted-zone signatures are kept valid across the whole
		// measurement window; operational re-signing is out of scope.
		signer.Expiration = simtime.End.Time().AddDate(1, 0, 0)
		d.signer = signer
	}
	if err := d.signer.Sign(d.zone); err != nil {
		return err
	}
	d.DNSSECOn = true
	if r.PublishDSTLDs != nil && !r.PublishDSTLDs[d.TLD] {
		return nil // signs, but never uploads DS for this TLD
	}
	if !path.dsCapable(r.deps.Clock()) {
		return fmt.Errorf("%w: DS upload path unavailable", ErrPartnerDeclined)
	}
	dss, err := d.signer.DSRecords(d.Name, dnswire.DigestSHA256)
	if err != nil {
		return err
	}
	return path.setDS(d.Name, dss)
}

// UseExternalNameservers switches the domain to owner-run DNS: the registry
// delegation is updated and the registrar stops hosting the zone. Any DS at
// the registry is withdrawn, since the registrar's keys no longer apply.
func (r *Registrar) UseExternalNameservers(accountEmail, name string, ns []string) error {
	d, err := r.domain(accountEmail, name)
	if err != nil {
		return err
	}
	path, err := r.regPathFor(d.TLD)
	if err != nil {
		return err
	}
	if err := path.session(func(c *epp.Client) error { return c.UpdateNS(d.Name, ns) }); err != nil {
		return err
	}
	if len(d.zone.Lookup(d.Name, dnswire.TypeDNSKEY)) > 0 || d.DNSSECOn {
		_ = path.setDS(d.Name, nil)
	}
	r.srv.RemoveZone(d.Name)
	d.Hosted = false
	d.DNSSECOn = false
	d.ExternalNS = append([]string(nil), ns...)
	return nil
}

// fetchDNSKEYs queries the domain's delegated nameservers for its DNSKEY
// RRset; a domain that cannot be observed is treated as serving none. The
// caller's context bounds the lookups, so probe timeouts and cancellation
// propagate into the registrar's own DNS traffic.
func (r *Registrar) fetchDNSKEYs(ctx context.Context, name string, ns []string) *dnssec.RRSet {
	set, err := dnssec.FetchKeys(ctx, r.deps.Net, uint16(r.deps.Rng.Intn(1<<16)), name, ns)
	if err != nil {
		return &dnssec.RRSet{}
	}
	return set
}

// installDS pushes a DS set to the registry for an externally hosted
// domain, applying the registrar's validation policy.
func (r *Registrar) installDS(ctx context.Context, d *Domain, ds []*dnswire.DS, validate bool) error {
	if d.Hosted {
		return ErrHosted
	}
	if validate {
		keySet := r.fetchDNSKEYs(ctx, d.Name, d.ExternalNS)
		if !dnssec.Link(d.Name, ds, keySet, r.now()).DSMatches {
			return fmt.Errorf("%w: does not match any served DNSKEY", ErrDSRejected)
		}
	}
	path, err := r.regPathFor(d.TLD)
	if err != nil {
		return err
	}
	if !path.dsCapable(r.deps.Clock()) {
		return fmt.Errorf("%w: DS upload path unavailable", ErrPartnerDeclined)
	}
	return path.setDS(d.Name, ds)
}
