// Package registry models TLD registries: the organizations that maintain a
// TLD zone file, accredit registrars, accept delegations (NS) and DS
// records, and — for some ccTLDs — pay registrars financial incentives for
// correctly DNSSEC-signed domains.
//
// A Registry owns an authoritative, DNSSEC-signed TLD zone served through
// package dnsserver. Registrars write to it only through EPP sessions
// (ServeEPP, Dial). Every state change a registrar makes (registration,
// nameserver change, DS upload) is reflected in the zone immediately, with
// the affected DS RRset re-signed incrementally, so the scanning and
// validation layers observe registry state strictly through DNS — exactly
// as OpenINTEL does in the paper.
package registry

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// ErrNoDNSSEC refuses DS data, and a CDS scan, at a registry that takes none.
var ErrNoDNSSEC = errors.New("registry: registry does not accept DS records")

// Errors of registry writes; a session answers each with its result code
// (resultFor).
var (
	errAlreadyExists    = errors.New("registry: domain is already registered")
	errNoSuchDomain     = errors.New("registry: domain is not registered")
	errWrongRegistrar   = errors.New("registry: domain is managed by another registrar")
	errOutsideTLD       = errors.New("registry: domain does not belong to this TLD")
	errEmptyNameservers = errors.New("registry: at least one nameserver is required")
	errBadDS            = errors.New("registry: malformed DS data")
)

// Incentive is a ccTLD-style financial incentive program (section 6.3):
// a yearly discount per correctly signed domain, with an audit rule that
// suspends the discount for registrars failing validation too often
// (".nl registrars should not fail validations more than 14 times in six
// months").
type Incentive struct {
	// DiscountPerYear is the per-domain yearly discount (e.g. €0.28 for
	// .nl, 10 SEK for .se).
	DiscountPerYear float64
	// MaxFailures within WindowDays suspends a registrar's discount.
	MaxFailures int
	WindowDays  int
}

// Registration is one domain's entry in the registry database.
type Registration struct {
	Domain      string
	RegistrarID string
	NS          []string
	DS          []*dnswire.DS
	Created     simtime.Day
	Expires     simtime.Day
}

// clone returns a defensive copy.
func (r *Registration) clone() *Registration {
	c := *r
	c.NS = append([]string(nil), r.NS...)
	c.DS = append([]*dnswire.DS(nil), r.DS...)
	return &c
}

// Config configures a Registry.
type Config struct {
	// TLD is the zone this registry operates ("com", "nl", ...).
	TLD string
	// NSHost is the hostname New serves the TLD zone at.
	NSHost string
	// AcceptsDS is true for DNSSEC-enabled registries (all five studied
	// TLDs accept DS records).
	AcceptsDS bool
	// SupportsCDS enables RFC 7344/8078 automated DS maintenance — at the
	// time of the paper only .cz had deployed this.
	SupportsCDS bool
	// Incentive enables a financial incentive program (nil for none).
	Incentive *Incentive
	// Clock supplies the current simulation day.
	Clock func() simtime.Day
}

// registrationPeriod is how long a registration or a renewal runs: a year.
const registrationPeriod = simtime.Day(365)

// Apex is a zone as the one server that answers for it runs it: the zone,
// the signer that signed it, and the authoritative server.
type Apex struct {
	Zone   *zone.Zone
	Signer *zone.Signer
	Server *dnsserver.Authoritative
}

// NewApex builds the zone origin served by nsHost as of now: its SOA and NS,
// then rrs (the delegations of a parent zone), signed with fresh Ed25519
// keys, and the server that answers for it.
//
// Every apex is signed by one rule: its signatures are valid from an hour
// before now until a year past the later of now and simtime.End. A TLD
// zone built at the window's start thus re-signs DS RRsets through its
// end, a day's zones hold for any day of the window they are built for, and
// an apex built at the wall clock, past the window, holds for a year.
func NewApex(origin, nsHost string, now time.Time, rrs ...*dnswire.RR) (*Apex, error) {
	z := zone.New(origin)
	z.MustAdd(dnswire.NewRR(origin, 86400, &dnswire.SOA{
		MName: nsHost, RName: "hostmaster." + nsHost,
		Serial: 1, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 3600,
	}))
	z.MustAdd(dnswire.NewRR(origin, 86400, &dnswire.NS{Host: nsHost}))
	for _, rr := range rrs {
		z.MustAdd(rr)
	}
	signer, err := zone.NewSigner(dnswire.AlgED25519, now)
	if err != nil {
		return nil, err
	}
	end := simtime.End.Time()
	if now.After(end) {
		end = now
	}
	signer.Expiration = end.AddDate(1, 0, 0)
	if err := signer.Sign(z); err != nil {
		return nil, err
	}
	a := &Apex{Zone: z, Signer: signer, Server: dnsserver.NewAuthoritative()}
	a.Server.AddZone(z)
	return a, nil
}

// Registry is one TLD registry.
type Registry struct {
	cfg  Config
	apex *Apex

	svTRID atomic.Int64 // the last server transaction ID a session issued

	mu   sync.RWMutex
	regs map[string]*Registration
	// passwords holds the EPP login password of each accredited registrar.
	passwords map[string]string
	// failures tracks validation-failure days per registrar for the
	// incentive audit window.
	failures map[string][]simtime.Day
	// discounts accrues paid incentives per registrar.
	discounts map[string]float64
}

// New builds a registry with a freshly signed TLD zone (NewApex).
func New(cfg Config) (*Registry, error) {
	cfg = cfg.withDefaults()
	apex, err := NewApex(cfg.TLD, cfg.NSHost, cfg.Clock().Time())
	if err != nil {
		return nil, err
	}
	return Operate(cfg, apex), nil
}

// Operate makes a registry of an existing TLD apex: registrations and DS
// uploads go into its zone, signed by its signer.
func Operate(cfg Config, apex *Apex) *Registry {
	return &Registry{
		cfg:       cfg.withDefaults(),
		apex:      apex,
		regs:      make(map[string]*Registration),
		passwords: make(map[string]string),
		failures:  make(map[string][]simtime.Day),
		discounts: make(map[string]float64),
	}
}

func (cfg Config) withDefaults() Config {
	if cfg.Clock == nil {
		cfg.Clock = func() simtime.Day { return simtime.GTLDStart }
	}
	cfg.TLD = dnswire.CanonicalName(cfg.TLD)
	return cfg
}

// TLD returns the TLD this registry operates.
func (r *Registry) TLD() string { return r.cfg.TLD }

// Server exposes the registry's authoritative server.
func (r *Registry) Server() *dnsserver.Authoritative { return r.apex.Server }

// DSRecords returns the DS set the root should publish for this TLD.
func (r *Registry) DSRecords() ([]*dnswire.DS, error) {
	return r.apex.Signer.DSRecords(r.cfg.TLD, dnswire.DigestSHA256)
}

// Accredit grants registrarID write access to this registry: it may log in
// to an EPP session with password, which replaces any it had. An empty
// password never authenticates.
func (r *Registry) Accredit(registrarID, password string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.passwords[registrarID] = password
}

// inTLD canonicalizes domain and checks that it is a name directly under
// the TLD.
func (r *Registry) inTLD(domain string) (string, error) {
	domain = dnswire.CanonicalName(domain)
	parent, _ := dnswire.Parent(domain)
	if parent != r.cfg.TLD || dnswire.CountLabels(domain) != dnswire.CountLabels(r.cfg.TLD)+1 {
		return "", fmt.Errorf("%w: %s not in .%s", errOutsideTLD, domain, r.cfg.TLD)
	}
	return domain, nil
}

// change is one decoded create or update: the domain's new delegation, nil
// to keep it, and, when setDS, its new DS RRset.
type change struct {
	domain string
	ns     []string
	ds     []*dnswire.DS
	setDS  bool
}

// apply carries out a change under one lock — a create when create is set,
// an update of registrarID's domain otherwise — and checks everything it
// needs before it changes anything. The registry stores whatever DS data
// the registrar sends: the paper shows that validation, when it happens at
// all, happens at the registrar.
func (r *Registry) apply(registrarID string, create bool, c change) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if c.setDS && !r.cfg.AcceptsDS {
		return ErrNoDNSSEC
	}
	reg := r.regs[c.domain]
	switch {
	case create && reg != nil:
		return fmt.Errorf("%w: %s", errAlreadyExists, c.domain)
	case create:
		now := r.cfg.Clock()
		reg = &Registration{Domain: c.domain, RegistrarID: registrarID, Created: now, Expires: now + registrationPeriod}
		r.regs[c.domain] = reg
	default:
		if err := r.owns(registrarID, c.domain); err != nil {
			return err
		}
		if c.ns == nil && !c.setDS {
			return nil
		}
	}
	if c.ns != nil {
		reg.NS = c.ns
	}
	if c.setDS {
		reg.DS = append([]*dnswire.DS(nil), c.ds...)
	}
	return r.syncDelegationLocked(c.domain)
}

// drop removes a registration entirely.
func (r *Registry) drop(registrarID, domain string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.owns(registrarID, domain); err != nil {
		return err
	}
	delete(r.regs, domain)
	return r.syncDelegationLocked(domain)
}

// renew extends a registration by the registry's period. Resellers that
// switch partner registrars migrate domains at renewal (section 6.3), so
// renewal is an explicit event.
func (r *Registry) renew(registrarID, domain string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.owns(registrarID, domain); err != nil {
		return err
	}
	r.regs[domain].Expires += registrationPeriod
	return nil
}

// owns checks that registrarID manages the canonical domain. Callers hold
// the lock.
func (r *Registry) owns(registrarID, domain string) error {
	reg, ok := r.regs[domain]
	if !ok {
		return fmt.Errorf("%w: %s", errNoSuchDomain, domain)
	}
	if reg.RegistrarID != registrarID {
		return fmt.Errorf("%w: %s is managed by %s", errWrongRegistrar, domain, reg.RegistrarID)
	}
	return nil
}

// Registration returns a copy of a domain's registry entry.
func (r *Registry) Registration(domain string) (*Registration, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	reg, ok := r.regs[dnswire.CanonicalName(domain)]
	if !ok {
		return nil, false
	}
	return reg.clone(), true
}

// syncDelegationLocked rewrites the zone records for one domain from its
// registration and re-signs the DS RRset only. A dropped domain has no
// registration and so nothing to publish, but its removal changes the zone
// like any other sync and moves the serial. Callers hold the lock.
func (r *Registry) syncDelegationLocked(domain string) error {
	z := r.apex.Zone
	z.Remove(domain, dnswire.TypeNS)
	z.Remove(domain, dnswire.TypeDS)
	z.RemoveSigs(domain, dnswire.TypeDS)
	var reg Registration
	if cur, ok := r.regs[domain]; ok {
		reg = *cur
	}
	for _, host := range reg.NS {
		if err := z.Add(dnswire.NewRR(domain, 86400, &dnswire.NS{Host: host})); err != nil {
			return err
		}
	}
	for _, ds := range reg.DS {
		d := *ds
		d.Digest = append([]byte(nil), ds.Digest...)
		if err := z.Add(dnswire.NewRR(domain, 86400, &d)); err != nil {
			return err
		}
	}
	if len(reg.DS) > 0 {
		if err := r.apex.Signer.SignSet(z, domain, dnswire.TypeDS); err != nil {
			return err
		}
	}
	z.BumpSerial()
	return nil
}

// normalizeHosts canonicalizes and deduplicates NS hostnames.
func normalizeHosts(hosts []string) []string {
	seen := make(map[string]bool, len(hosts))
	out := make([]string, 0, len(hosts))
	for _, h := range hosts {
		c := dnswire.CanonicalName(h)
		if c == "" || seen[c] {
			continue
		}
		seen[c] = true
		out = append(out, c)
	}
	return out
}

// HealthReport summarizes one incentive audit sweep.
type HealthReport struct {
	Day simtime.Day
	// Checked is the number of DS-bearing domains audited.
	Checked int
	// Valid counts domains whose chain validated.
	Valid int
	// FailuresByRegistrar counts broken domains per responsible registrar.
	FailuresByRegistrar map[string]int
	// DiscountsAccrued is the per-registrar discount granted for this day.
	DiscountsAccrued map[string]float64
}

// HealthCheck audits every DS-bearing domain by querying its nameservers
// for DNSKEYs over ex (dnssec.FetchKeys) and judging the DS ↔ DNSKEY ↔ RRSIG
// link (dnssec.Link) — the daily compliance test .nl and .se run (section
// 6.3). A domain none of whose nameservers answers fails the audit.
// Correctly signed domains accrue the pro-rated daily discount for their
// registrar unless the registrar is over the failure threshold.
func (r *Registry) HealthCheck(ctx context.Context, ex exchange.Exchanger, day simtime.Day) (*HealthReport, error) {
	if r.cfg.Incentive == nil {
		return nil, errors.New("registry: no incentive program configured")
	}
	r.mu.RLock()
	type item struct {
		domain      string
		registrarID string
		ns          []string
		ds          []*dnswire.DS
	}
	var items []item
	for d, reg := range r.regs {
		if len(reg.DS) > 0 {
			items = append(items, item{d, reg.RegistrarID, append([]string(nil), reg.NS...), append([]*dnswire.DS(nil), reg.DS...)})
		}
	}
	r.mu.RUnlock()

	report := &HealthReport{
		Day:                 day,
		FailuresByRegistrar: make(map[string]int),
		DiscountsAccrued:    make(map[string]float64),
	}
	var qid uint16
	perRegistrarValid := make(map[string]int)
	for _, it := range items {
		report.Checked++
		qid++
		keySet, err := dnssec.FetchKeys(ctx, ex, qid, it.domain, it.ns)
		if err == nil && dnssec.Link(it.domain, it.ds, keySet, day.Time()).KeysValid {
			report.Valid++
			perRegistrarValid[it.registrarID]++
		} else {
			report.FailuresByRegistrar[it.registrarID]++
			r.recordFailure(it.registrarID, day)
		}
	}
	// Grant the pro-rated daily discount for valid domains of registrars
	// under the audit threshold.
	daily := r.cfg.Incentive.DiscountPerYear / 365
	r.mu.Lock()
	for regID, n := range perRegistrarValid {
		if r.overThresholdLocked(regID, day) {
			continue
		}
		amount := float64(n) * daily
		r.discounts[regID] += amount
		report.DiscountsAccrued[regID] = amount
	}
	r.mu.Unlock()
	return report, nil
}

func (r *Registry) recordFailure(registrarID string, day simtime.Day) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.failures[registrarID] = append(r.failures[registrarID], day)
}

func (r *Registry) overThresholdLocked(registrarID string, day simtime.Day) bool {
	inc := r.cfg.Incentive
	if inc == nil || inc.MaxFailures <= 0 {
		return false
	}
	n := 0
	for _, d := range r.failures[registrarID] {
		if day-d <= simtime.Day(inc.WindowDays) {
			n++
		}
	}
	return n > inc.MaxFailures
}

// Discounts returns the accrued incentive payouts per registrar.
func (r *Registry) Discounts() map[string]float64 {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make(map[string]float64, len(r.discounts))
	for k, v := range r.discounts {
		out[k] = v
	}
	return out
}
