// Package dnstest builds small signed DNS hierarchies (root → TLDs →
// second-level domains) on an in-memory network, for tests across the
// registrarsec module and regsec-check's demonstration. The root and TLDs
// are an ecosystem.Tree, the one builder the materialized day and the
// registry ecosystem use too; this package adds the domains below, in the
// postures the paper's deployment classes need.
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

// Hierarchy is an ecosystem.Tree with helpers to hang domains below its
// TLDs.
type Hierarchy struct {
	*ecosystem.Tree
	Now time.Time

	// operator NS host -> its authoritative server
	operators map[string]*dnsserver.Authoritative
}

// TLDServerAddr returns the network address of a TLD's authoritative
// server in hierarchies built by this package.
func TLDServerAddr(tld string) string { return ecosystem.TLDServerAddr(tld) }

// NewHierarchy builds a signed root and the given signed TLDs at time now.
func NewHierarchy(now time.Time, tlds ...string) (*Hierarchy, error) {
	tree, err := ecosystem.NewTree(now, tlds...)
	if err != nil {
		return nil, err
	}
	return &Hierarchy{Tree: tree, Now: now, operators: make(map[string]*dnsserver.Authoritative)}, nil
}

// TLDZone exposes a TLD's zone for direct inspection or mutation.
func (h *Hierarchy) TLDZone(tld string) *zone.Zone { return h.TLDs[tld].Zone }

// TLDSigner exposes the signer of a TLD.
func (h *Hierarchy) TLDSigner(tld string) *zone.Signer { return h.TLDs[tld].Signer }

// TLDServer exposes a TLD's authoritative server.
func (h *Hierarchy) TLDServer(tld string) *dnsserver.Authoritative { return h.TLDs[tld].Server }

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
	apex, ok := h.TLDs[tld]
	if !ok {
		return nil, nil, fmt.Errorf("dnstest: TLD %q not in hierarchy", tld)
	}
	tz := apex.Zone
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
	if err := apex.Signer.Sign(tz); err != nil {
		return nil, nil, err
	}

	h.OperatorServer(nsHost).AddZone(child)
	return child, signer, nil
}

// Validating builds a validating resolver over the hierarchy that judges
// signatures at h.Now.
func (h *Hierarchy) Validating() *resolver.Validating {
	return h.ValidatingAt(func() time.Time { return h.Now })
}

// ValidateDomain is a convenience wrapper classifying one domain the way
// the paper does: does it publish DNSKEYs, does the TLD have a DS, and does
// the chain validate.
func (h *Hierarchy) ValidateDomain(domain string) (dnssec.Deployment, error) {
	domain = dnswire.CanonicalName(domain)
	tld, _ := dnswire.Parent(domain)
	apex := h.TLDs[tld]
	if apex == nil {
		return dnssec.DeploymentNone, fmt.Errorf("no TLD for %s", domain)
	}
	hasDS := len(apex.Zone.Lookup(domain, dnswire.TypeDS)) > 0
	v := h.Validating()
	res, chain, err := v.Lookup(context.Background(), domain, dnswire.TypeDNSKEY)
	if err != nil {
		return dnssec.DeploymentNone, err
	}
	hasKey := len(res.RRSet(domain, dnswire.TypeDNSKEY).RRs) > 0
	return dnssec.Classify(hasKey, hasDS, chain.Status == dnssec.Secure), nil
}
