// Package dnstest builds small signed DNS hierarchies (root → TLDs →
// second-level domains) on an in-memory network, for use by tests across
// the registrarsec module. It exercises the same zone, signing and serving
// code paths as the full ecosystem simulation.
package dnstest

import (
	"context"
	"fmt"
	"net/netip"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/resolver"
	"securepki.org/registrarsec/internal/zone"
)

// DomainMode selects the DNSSEC posture of a test domain, mirroring the
// paper's deployment classes.
type DomainMode int

const (
	// Unsigned: plain DNS, no DNSSEC records anywhere.
	Unsigned DomainMode = iota
	// Partial: DNSKEY and RRSIGs are served but no DS is uploaded — the
	// paper's "partially deployed" state.
	Partial
	// Full: signed zone plus matching DS in the TLD.
	Full
	// BogusDS: signed zone, but the TLD carries a DS that matches no key —
	// what happens when a registrar accepts a garbage DS upload.
	BogusDS
	// WrongSigner: the DS digests the KSK, but the DNSKEY RRset is signed
	// by the ZSK alone — what a rollover leaves when DS and signing key
	// are swapped out of order, and what an on-path attacker can forge.
	// Every record is present and every signature verifies; no key the
	// parent vouches for has signed the key set.
	WrongSigner
)

// RootAddr is the address of the root nameserver on the in-memory network.
const RootAddr = ecosystem.RootAddr

// Hierarchy is a root plus TLD servers with helpers to hang domains below
// them.
type Hierarchy struct {
	Net    *dnsserver.MemNet
	Now    time.Time
	Anchor []*dnswire.DS

	rootZone *zone.Zone
	rootSrv  *dnsserver.Authoritative

	tldZones   map[string]*zone.Zone
	tldSigners map[string]*zone.Signer
	tldSrv     map[string]*dnsserver.Authoritative

	// operator NS host -> its authoritative server
	operators map[string]*dnsserver.Authoritative
}

// tldNS names the nameserver host for a TLD.
func tldNS(tld string) string { return "ns1." + tld + "-registry.example" }

// TLDServerAddr returns the network address of a TLD's authoritative
// server in hierarchies and ecosystems built by this package.
func TLDServerAddr(tld string) string { return ecosystem.TLDServerAddr(tld) }

// NewHierarchy builds a signed root and the given signed TLDs at time now.
func NewHierarchy(now time.Time, tlds ...string) (*Hierarchy, error) {
	h := &Hierarchy{
		Net:        dnsserver.NewMemNet(),
		Now:        now,
		tldZones:   make(map[string]*zone.Zone),
		tldSigners: make(map[string]*zone.Signer),
		tldSrv:     make(map[string]*dnsserver.Authoritative),
		operators:  make(map[string]*dnsserver.Authoritative),
	}
	h.Net.Strict = true

	h.rootZone = zone.New("")
	h.rootZone.MustAdd(dnswire.NewRR("", 86400, &dnswire.SOA{
		MName: RootAddr, RName: "nstld.verisign-grs.com",
		Serial: 2016123100, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 86400,
	}))
	h.rootZone.MustAdd(dnswire.NewRR("", 86400, &dnswire.NS{Host: RootAddr}))
	rootSigner, err := zone.NewSigner(dnswire.AlgED25519, now)
	if err != nil {
		return nil, err
	}
	h.tldSigners[""] = rootSigner

	for _, tld := range tlds {
		if err := h.addTLD(tld, now); err != nil {
			return nil, err
		}
	}
	if err := rootSigner.Sign(h.rootZone); err != nil {
		return nil, err
	}
	h.rootSrv = dnsserver.NewAuthoritative()
	h.rootSrv.AddZone(h.rootZone)
	h.Net.Register(RootAddr, h.rootSrv)

	anchor, err := rootSigner.DSRecords("", dnswire.DigestSHA256)
	if err != nil {
		return nil, err
	}
	h.Anchor = anchor
	return h, nil
}

func (h *Hierarchy) addTLD(tld string, now time.Time) error {
	z := zone.New(tld)
	z.MustAdd(dnswire.NewRR(tld, 86400, &dnswire.SOA{
		MName: tldNS(tld), RName: "hostmaster." + tld + "-registry.example",
		Serial: 2016123100, Refresh: 1800, Retry: 900, Expire: 604800, Minimum: 3600,
	}))
	z.MustAdd(dnswire.NewRR(tld, 86400, &dnswire.NS{Host: tldNS(tld)}))
	signer, err := zone.NewSigner(dnswire.AlgED25519, now)
	if err != nil {
		return err
	}
	if err := signer.Sign(z); err != nil {
		return err
	}
	h.tldZones[tld] = z
	h.tldSigners[tld] = signer
	srv := dnsserver.NewAuthoritative()
	srv.AddZone(z)
	h.tldSrv[tld] = srv
	h.Net.Register(tldNS(tld), srv)

	// Delegate in the root with DS.
	h.rootZone.MustAdd(dnswire.NewRR(tld, 86400, &dnswire.NS{Host: tldNS(tld)}))
	dss, err := signer.DSRecords(tld, dnswire.DigestSHA256)
	if err != nil {
		return err
	}
	for _, ds := range dss {
		h.rootZone.MustAdd(dnswire.NewRR(tld, 86400, ds))
	}
	return nil
}

// TLDZone exposes a TLD's zone for direct inspection or mutation.
func (h *Hierarchy) TLDZone(tld string) *zone.Zone { return h.tldZones[tld] }

// TLDSigner exposes the signer of a TLD (or of the root for "").
func (h *Hierarchy) TLDSigner(tld string) *zone.Signer { return h.tldSigners[tld] }

// TLDServer exposes a TLD's authoritative server.
func (h *Hierarchy) TLDServer(tld string) *dnsserver.Authoritative { return h.tldSrv[tld] }

// OperatorServer returns (creating on demand) the authoritative server
// registered at the given NS hostname.
func (h *Hierarchy) OperatorServer(nsHost string) *dnsserver.Authoritative {
	if srv, ok := h.operators[nsHost]; ok {
		return srv
	}
	srv := dnsserver.NewAuthoritative()
	h.operators[nsHost] = srv
	h.Net.Register(nsHost, srv)
	return srv
}

// AddDomain creates a second-level domain under its TLD, served by an
// operator server at nsHost, with the requested DNSSEC posture. It returns
// the child zone (and its signer when signed).
func (h *Hierarchy) AddDomain(domain, nsHost string, mode DomainMode) (*zone.Zone, *zone.Signer, error) {
	domain = dnswire.CanonicalName(domain)
	tld, _ := dnswire.Parent(domain)
	tz, ok := h.tldZones[tld]
	if !ok {
		return nil, nil, fmt.Errorf("dnstest: TLD %q not in hierarchy", tld)
	}
	child := zone.New(domain)
	child.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.SOA{
		MName: nsHost, RName: "hostmaster." + domain,
		Serial: 2016123100, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	child.MustAdd(dnswire.NewRR(domain, 3600, &dnswire.NS{Host: nsHost}))
	child.MustAdd(dnswire.NewRR("www."+domain, 300, &dnswire.A{Addr: netip.MustParseAddr("203.0.113.80")}))
	child.MustAdd(dnswire.NewRR(domain, 300, &dnswire.A{Addr: netip.MustParseAddr("203.0.113.81")}))

	var signer *zone.Signer
	if mode != Unsigned {
		var err error
		signer, err = zone.NewSigner(dnswire.AlgED25519, h.Now)
		if err != nil {
			return nil, nil, err
		}
		if err := signer.Sign(child); err != nil {
			return nil, nil, err
		}
	}
	if mode == WrongSigner {
		sig, err := dnssec.SignRRSet(child.Lookup(domain, dnswire.TypeDNSKEY), signer.ZSK, domain,
			dnssec.SignOptions{Inception: signer.Inception, Expiration: signer.Expiration})
		if err != nil {
			return nil, nil, err
		}
		child.RemoveSigs(domain, dnswire.TypeDNSKEY)
		child.MustAdd(sig)
	}

	// Delegation in the TLD zone.
	tz.MustAdd(dnswire.NewRR(domain, 86400, &dnswire.NS{Host: nsHost}))
	switch mode {
	case Full, WrongSigner:
		dss, err := signer.DSRecords(domain, dnswire.DigestSHA256)
		if err != nil {
			return nil, nil, err
		}
		for _, ds := range dss {
			tz.MustAdd(dnswire.NewRR(domain, 86400, ds))
		}
	case BogusDS:
		// A DS that matches no published key: 32 bytes of zeros.
		tz.MustAdd(dnswire.NewRR(domain, 86400, &dnswire.DS{
			KeyTag: 1, Algorithm: dnswire.AlgED25519,
			DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32),
		}))
	}
	// Re-sign the TLD so the new delegation's DS RRset carries signatures.
	if err := h.tldSigners[tld].Sign(tz); err != nil {
		return nil, nil, err
	}

	h.OperatorServer(nsHost).AddZone(child)
	return child, signer, nil
}

// Resolver builds an iterative resolver over the in-memory network.
func (h *Hierarchy) Resolver(dnssecOK bool) *resolver.Resolver {
	return resolver.New(resolver.Config{
		Roots:    []string{RootAddr},
		Exchange: h.Net,
		DNSSEC:   dnssecOK,
	})
}

// Validating builds a validating resolver anchored at this hierarchy's
// root key.
func (h *Hierarchy) Validating() *resolver.Validating {
	return &resolver.Validating{
		R:      h.Resolver(true),
		Anchor: h.Anchor,
		Now:    func() time.Time { return h.Now },
	}
}

// ValidateDomain is a convenience wrapper classifying one domain the way
// the paper does: does it publish DNSKEYs, does the TLD have a DS, and does
// the chain validate.
func (h *Hierarchy) ValidateDomain(domain string) (dnssec.Deployment, error) {
	domain = dnswire.CanonicalName(domain)
	tld, _ := dnswire.Parent(domain)
	tz := h.tldZones[tld]
	if tz == nil {
		return dnssec.DeploymentNone, fmt.Errorf("no TLD for %s", domain)
	}
	hasDS := len(tz.Lookup(domain, dnswire.TypeDS)) > 0
	v := h.Validating()
	res, chain, err := v.Lookup(context.Background(), domain, dnswire.TypeDNSKEY)
	if err != nil {
		return dnssec.DeploymentNone, err
	}
	hasKey := len(res.RRSet(domain, dnswire.TypeDNSKEY).RRs) > 0
	return dnssec.Classify(hasKey, hasDS, chain.Status == dnssec.Secure), nil
}
