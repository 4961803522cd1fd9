// Package operator models third-party DNS operators — organizations such
// as Cloudflare and DNSPod that run authoritative DNS for customers but are
// not registrars (paper section 7). They can generate DNSKEYs and RRSIGs,
// but have no standing to upload DS records: the customer must relay the DS
// to their registrar by hand. The paper finds 40% of Cloudflare customers
// who enabled DNSSEC never completed that relay, leaving their domains
// partially deployed.
//
// The package also implements the two escape hatches discussed in the
// paper: publishing CDS/CDNSKEY records for registries that poll them
// (RFC 7344 — only .cz at the time), and the Cloudflare/CIRA draft where
// the operator calls a registrar-exposed bootstrap API directly.
package operator

import (
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sync"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// Errors returned by operator flows.
var (
	ErrNoDNSSEC    = errors.New("operator: operator does not support DNSSEC")
	ErrNoSuchZone  = errors.New("operator: zone not managed here")
	ErrNotEnabled  = errors.New("operator: DNSSEC not enabled for this zone")
	ErrNotLaunched = errors.New("operator: DNSSEC product not launched yet")
)

// algorithm signs every operator zone: Cloudflare deployed ECDSA P-256.
const algorithm = dnswire.AlgECDSAP256SHA256

// Config describes a third-party operator.
type Config struct {
	// ID and Name identify the operator ("cloudflare").
	ID, Name string
	// NSHosts are its authoritative nameservers.
	NSHosts []string
	// SupportsDNSSEC distinguishes Cloudflare (yes) from DNSPod (no).
	SupportsDNSSEC bool
	// DNSSECLaunchDay gates EnableDNSSEC (Cloudflare: 2015-11-11). Zero
	// means always available.
	DNSSECLaunchDay simtime.Day
	// PublishesCDS adds CDS/CDNSKEY records to signed zones so polling
	// registries can pick the DS up automatically.
	PublishesCDS bool
	// Clock supplies the simulation day.
	Clock func() simtime.Day
	// Net hosts the operator's nameservers.
	Net *dnsserver.MemNet
}

// Operator is a third-party DNS operator agent.
type Operator struct {
	cfg Config

	mu      sync.RWMutex
	zones   map[string]*zone.Zone
	signers map[string]*zone.Signer

	srv *dnsserver.Authoritative
}

// New creates the operator and registers its nameservers.
func New(cfg Config) (*Operator, error) {
	if cfg.Clock == nil {
		cfg.Clock = func() simtime.Day { return simtime.GTLDStart }
	}
	if len(cfg.NSHosts) == 0 {
		return nil, fmt.Errorf("operator %s: no nameserver hosts", cfg.ID)
	}
	o := &Operator{
		cfg:     cfg,
		zones:   make(map[string]*zone.Zone),
		signers: make(map[string]*zone.Signer),
		srv:     dnsserver.NewAuthoritative(),
	}
	if cfg.Net != nil {
		for _, host := range cfg.NSHosts {
			cfg.Net.Register(host, o.srv)
		}
	}
	return o, nil
}

// NSHosts returns the nameservers a customer must delegate to.
func (o *Operator) NSHosts() []string { return append([]string(nil), o.cfg.NSHosts...) }

// CreateZone onboards a domain: the operator builds and serves the zone.
// The customer must separately point the registry delegation at NSHosts via
// their registrar.
func (o *Operator) CreateZone(domain string) (*zone.Zone, error) {
	domain = dnswire.CanonicalName(domain)
	z := zone.New(domain)
	z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.SOA{
		MName: o.cfg.NSHosts[0], RName: "dns." + dnswire.SecondLevel(o.cfg.NSHosts[0]),
		Serial: 1, Refresh: 10000, Retry: 2400, Expire: 604800, Minimum: 300,
	}))
	for _, host := range o.cfg.NSHosts {
		z.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.NS{Host: host}))
	}
	z.MustAdd(dnswire.NewRR(domain, 300, &dnswire.A{Addr: netip.MustParseAddr("104.16.0.1")}))
	z.MustAdd(dnswire.NewRR("www."+domain, 300, &dnswire.A{Addr: netip.MustParseAddr("104.16.0.1")}))
	o.mu.Lock()
	o.zones[domain] = z
	o.mu.Unlock()
	o.srv.AddZone(z)
	return z, nil
}

// EnableDNSSEC signs the customer's zone and returns the DS record the
// customer must relay to their registrar. This is the handoff step 40% of
// Cloudflare customers never complete.
func (o *Operator) EnableDNSSEC(domain string) (*dnswire.DS, error) {
	if !o.cfg.SupportsDNSSEC {
		return nil, fmt.Errorf("%w (%s)", ErrNoDNSSEC, o.cfg.Name)
	}
	day := o.cfg.Clock()
	if o.cfg.DNSSECLaunchDay != 0 && day < o.cfg.DNSSECLaunchDay {
		return nil, fmt.Errorf("%w: launches %s", ErrNotLaunched, o.cfg.DNSSECLaunchDay)
	}
	domain = dnswire.CanonicalName(domain)
	o.mu.Lock()
	defer o.mu.Unlock()
	z, ok := o.zones[domain]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNoSuchZone, domain)
	}
	signer, ok := o.signers[domain]
	if !ok {
		var err error
		signer, err = zone.NewSigner(algorithm, day.Time())
		if err != nil {
			return nil, err
		}
		signer.Expiration = simtime.End.Time().AddDate(1, 0, 0)
		o.signers[domain] = signer
	}
	if err := signer.Sign(z); err != nil {
		return nil, err
	}
	if o.cfg.PublishesCDS {
		if err := signer.PublishCDS(z, dnswire.DigestSHA256); err != nil {
			return nil, err
		}
	}
	dss, err := signer.DSRecords(domain, dnswire.DigestSHA256)
	if err != nil {
		return nil, err
	}
	return dss[0], nil
}

// DisableDNSSEC strips DNSSEC from the zone. The customer is responsible
// for removing the DS first — doing it in the wrong order makes the domain
// bogus, another operational trap.
func (o *Operator) DisableDNSSEC(domain string) error {
	domain = dnswire.CanonicalName(domain)
	o.mu.Lock()
	defer o.mu.Unlock()
	z, ok := o.zones[domain]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNoSuchZone, domain)
	}
	zone.Unsign(z)
	delete(o.signers, domain)
	return nil
}

// DSRecord re-issues the DS for an already-signed zone (shown in the
// dashboard for the customer to copy).
func (o *Operator) DSRecord(domain string) (*dnswire.DS, error) {
	domain = dnswire.CanonicalName(domain)
	o.mu.RLock()
	signer, ok := o.signers[domain]
	o.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotEnabled, domain)
	}
	dss, err := signer.DSRecords(domain, dnswire.DigestSHA256)
	if err != nil {
		return nil, err
	}
	return dss[0], nil
}

// RegistrarBootstrapAPI is the registrar-side endpoint of the
// Cloudflare/CIRA third-party-operator draft: a REST-like call with which
// an operator asks the registrar to install a DS record directly, removing
// the customer from the loop. registrarsec's registrar agents expose it
// when they implement the draft.
type RegistrarBootstrapAPI interface {
	// BootstrapDS installs a DS for domain on behalf of its DNS operator.
	// The registrar is expected to verify that the operator actually
	// serves the domain before accepting; ctx bounds that verification's
	// DNS lookups.
	BootstrapDS(ctx context.Context, domain string, ds *dnswire.DS) error
}

// BootstrapViaRegistrar pushes the domain's DS straight to the registrar
// using the draft protocol.
func (o *Operator) BootstrapViaRegistrar(ctx context.Context, domain string, api RegistrarBootstrapAPI) error {
	ds, err := o.DSRecord(domain)
	if err != nil {
		return err
	}
	return api.BootstrapDS(ctx, domain, ds)
}
