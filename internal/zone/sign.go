package zone

import (
	"bytes"
	"errors"
	"fmt"
	"sort"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
)

// Signer signs a zone with the conventional KSK/ZSK split: the KSK signs the
// DNSKEY RRset (and is what the parent's DS digests), the ZSK signs
// everything else.
type Signer struct {
	KSK *dnssec.KeyPair
	ZSK *dnssec.KeyPair
	// Inception and Expiration bound the RRSIG validity windows.
	Inception  time.Time
	Expiration time.Time
	// AddNSEC builds an NSEC chain for authenticated denial of existence.
	AddNSEC bool
	// NSEC3 switches denial to hashed NSEC3 chains with these parameters
	// (RFC 5155); takes precedence over AddNSEC. Zero iterations and an
	// empty salt are valid (and recommended by modern guidance).
	NSEC3 *dnswire.NSEC3PARAM
}

// keyTTL is the DNSKEY RRset TTL.
const keyTTL = 3600

// NewSigner generates a fresh KSK/ZSK pair for the given algorithm with a
// validity window around now.
func NewSigner(alg dnswire.Algorithm, now time.Time) (*Signer, error) {
	ksk, err := dnssec.GenerateKeyPair(alg, dnswire.FlagsKSK, nil)
	if err != nil {
		return nil, err
	}
	zsk, err := dnssec.GenerateKeyPair(alg, dnswire.FlagsZSK, nil)
	if err != nil {
		return nil, err
	}
	return &Signer{
		KSK:        ksk,
		ZSK:        zsk,
		Inception:  now.Add(-time.Hour),
		Expiration: now.Add(30 * 24 * time.Hour),
	}, nil
}

// opts returns the sign options for this signer.
func (s *Signer) opts() dnssec.SignOptions {
	return dnssec.SignOptions{Inception: s.Inception, Expiration: s.Expiration}
}

// Sign (re-)signs the zone in place: it strips existing DNSSEC material,
// installs the DNSKEY RRset, optionally builds the NSEC chain, and plans an
// RRSIG for every authoritative RRset. Delegation NS RRsets and glue below
// cuts are left unsigned, DS RRsets at cuts are signed, per RFC 4035
// section 2.2.
//
// Everything but the private-key operation happens here, so every error
// signing can report short of a failing key is reported here; the zone runs
// the key for each signature when a reader first needs it (see plan.go).
// The plans hold the signer's keys and validity window as they are now:
// changing the Signer afterwards changes nothing already planned.
func (s *Signer) Sign(z *Zone) error {
	if err := s.install(z); err != nil {
		return err
	}
	var plans []*dnssec.PendingSig
	var planErr error
	signable(z, func(rrs []*dnswire.RR) {
		if planErr != nil {
			return
		}
		p, err := s.prepare(z.Origin, rrs)
		if err != nil {
			planErr = fmt.Errorf("zone %s: signing %s/%v: %w", present(z.Origin), rrs[0].Name, rrs[0].Type, err)
			return
		}
		plans = append(plans, p)
	})
	if planErr != nil {
		return planErr
	}
	frozen := *s
	z.planZone(&frozen, plans)
	return nil
}

// install strips the zone's DNSSEC material, installs the signer's DNSKEY
// RRset and builds the denial chain the signer asks for.
func (s *Signer) install(z *Zone) error {
	if s.KSK == nil || s.ZSK == nil {
		return errors.New("zone: signer requires both KSK and ZSK")
	}
	z.RemoveType(dnswire.TypeRRSIG)
	z.RemoveType(dnswire.TypeNSEC)
	z.RemoveType(dnswire.TypeNSEC3)
	z.Remove(z.Origin, dnswire.TypeNSEC3PARAM)
	z.Remove(z.Origin, dnswire.TypeDNSKEY)
	z.MustAdd(s.KSK.RR(z.Origin, keyTTL))
	z.MustAdd(s.ZSK.RR(z.Origin, keyTTL))
	switch {
	case s.NSEC3 != nil:
		return s.addNSEC3Chain(z)
	case s.AddNSEC:
		return s.addNSECChain(z)
	}
	return nil
}

// signable calls fn with every RRset of z that gets a signature: all but
// RRSIGs themselves and, at and below a delegation cut, all but the DS and
// NSEC RRsets at the cut itself (the rest is the child's, or glue).
func signable(z *Zone, fn func(rrs []*dnswire.RR)) {
	z.RRSets(func(name string, t dnswire.Type, rrs []*dnswire.RR) {
		if t == dnswire.TypeRRSIG {
			return
		}
		if cut, _ := z.DelegationFor(name); cut != "" {
			if name != cut || (t != dnswire.TypeDS && t != dnswire.TypeNSEC) {
				return
			}
		}
		fn(rrs)
	})
}

// addNSECChain links every authoritative owner name to the next in
// canonical order, closing the loop back to the apex.
func (s *Signer) addNSECChain(z *Zone) error {
	names := z.Names()
	// Only names that are authoritative participate; glue below cuts does
	// not get NSEC records.
	var auth []string
	for _, n := range names {
		cut, _ := z.DelegationFor(n)
		if cut != "" && n != cut {
			continue
		}
		auth = append(auth, n)
	}
	if len(auth) == 0 {
		return errors.New("zone: cannot build NSEC chain for empty zone")
	}
	soa := z.SOA()
	minTTL := z.DefaultTTL
	if soa != nil {
		minTTL = soa.Data.(*dnswire.SOA).Minimum
	}
	for i, n := range auth {
		next := auth[(i+1)%len(auth)]
		types := typesAt(z, n, dnswire.TypeNSEC, dnswire.TypeRRSIG)
		if err := z.Add(dnswire.NewRR(n, minTTL, &dnswire.NSEC{NextName: next, Types: types})); err != nil {
			return err
		}
	}
	return nil
}

// typesAt lists the types present at name plus those the chain is about to
// add there, ascending, so the zone's text does not depend on map order.
func typesAt(z *Zone, name string, adding ...dnswire.Type) []dnswire.Type {
	types := adding
	for t := range z.LookupAll(name) {
		types = append(types, t)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	return types
}

// addNSEC3Chain builds the hashed denial chain (RFC 5155): every
// authoritative owner name is hashed with the configured salt/iterations,
// the hashes are sorted, and one NSEC3 record per name links to the next
// hash in order. The NSEC3PARAM record at the apex advertises the
// parameters to resolvers.
func (s *Signer) addNSEC3Chain(z *Zone) error {
	params := s.NSEC3
	names := z.Names()
	type entry struct {
		hash  []byte
		owner string // original name, for the type bitmap
	}
	var entries []entry
	for _, n := range names {
		cut, _ := z.DelegationFor(n)
		if cut != "" && n != cut {
			continue // glue
		}
		h, err := dnssec.NSEC3Hash(n, params.Salt, params.Iterations)
		if err != nil {
			return err
		}
		entries = append(entries, entry{hash: h, owner: n})
	}
	if len(entries) == 0 {
		return errors.New("zone: cannot build NSEC3 chain for empty zone")
	}
	sort.Slice(entries, func(i, j int) bool {
		return bytes.Compare(entries[i].hash, entries[j].hash) < 0
	})
	soa := z.SOA()
	minTTL := z.DefaultTTL
	if soa != nil {
		minTTL = soa.Data.(*dnswire.SOA).Minimum
	}
	if err := z.Add(dnswire.NewRR(z.Origin, minTTL, &dnswire.NSEC3PARAM{
		HashAlg: params.HashAlg, Flags: 0, Iterations: params.Iterations,
		Salt: append([]byte(nil), params.Salt...),
	})); err != nil {
		return err
	}
	for i, e := range entries {
		next := entries[(i+1)%len(entries)]
		types := typesAt(z, e.owner, dnswire.TypeRRSIG)
		ownerName := dnswire.Base32HexEncode(e.hash)
		if z.Origin != "" {
			ownerName += "." + z.Origin
		}
		if err := z.Add(dnswire.NewRR(ownerName, minTTL, &dnswire.NSEC3{
			HashAlg:    params.HashAlg,
			Flags:      params.Flags,
			Iterations: params.Iterations,
			Salt:       append([]byte(nil), params.Salt...),
			NextHashed: next.hash,
			Types:      types,
		})); err != nil {
			return err
		}
	}
	return nil
}

// DSRecords computes the DS set a parent should publish for this signer's
// KSK.
func (s *Signer) DSRecords(zoneName string, dt dnswire.DigestType) ([]*dnswire.DS, error) {
	ds, err := dnssec.ComputeDS(zoneName, s.KSK.DNSKEY(), dt)
	if err != nil {
		return nil, err
	}
	return []*dnswire.DS{ds}, nil
}

// SignSet signs (or re-signs) a single RRset in place, replacing any
// existing RRSIGs covering it, planned or produced, with a plan as Sign
// would. Registries use this to maintain DS RRsets incrementally as
// registrars upload records, instead of re-signing the whole
// multi-million-entry TLD zone.
func (s *Signer) SignSet(z *Zone, name string, t dnswire.Type) error {
	name = dnswire.CanonicalName(name)
	rrs := z.Lookup(name, t)
	if len(rrs) == 0 {
		z.RemoveSigs(name, t)
		return nil
	}
	p, err := s.prepare(z.Origin, rrs)
	if err != nil {
		z.RemoveSigs(name, t)
		return err
	}
	z.resign(name, t, p)
	return nil
}

// prepare plans the RRSIG over one RRset of the zone rooted at origin: the
// KSK signs a DNSKEY RRset, the ZSK anything else.
func (s *Signer) prepare(origin string, rrs []*dnswire.RR) (*dnssec.PendingSig, error) {
	if len(rrs) == 0 {
		return nil, dnssec.ErrEmptyRRSet
	}
	key := s.ZSK
	if rrs[0].Type == dnswire.TypeDNSKEY {
		key = s.KSK
	}
	return dnssec.PrepareRRSIG(rrs, key, origin, s.opts())
}

// SignRRSet produces the RRSIG over one RRset of the zone rooted at origin
// here and now, without touching a zone, so callers can sign from several
// goroutines and add the results in an order of their choosing.
func (s *Signer) SignRRSet(origin string, rrs []*dnswire.RR) (*dnswire.RR, error) {
	p, err := s.prepare(origin, rrs)
	if err != nil {
		return nil, err
	}
	return p.Sign()
}

// Unsign strips all DNSSEC material from the zone (what a registrar does
// when a customer disables DNSSEC — the paper notes the DS must be removed
// from the parent first or the zone goes bogus).
func Unsign(z *Zone) {
	z.RemoveType(dnswire.TypeRRSIG)
	z.RemoveType(dnswire.TypeNSEC)
	z.RemoveType(dnswire.TypeNSEC3)
	z.Remove(z.Origin, dnswire.TypeNSEC3PARAM)
	z.Remove(z.Origin, dnswire.TypeDNSKEY)
	z.Remove(z.Origin, dnswire.TypeCDS)
	z.Remove(z.Origin, dnswire.TypeCDNSKEY)
}

// PublishCDS installs CDS and CDNSKEY records for the signer's KSK at the
// apex and plans their signatures under the KSK, signalling the parent to
// update its DS RRset (RFC 7344).
func (s *Signer) PublishCDS(z *Zone, dt dnswire.DigestType) error {
	ds, err := dnssec.ComputeDS(z.Origin, s.KSK.DNSKEY(), dt)
	if err != nil {
		return err
	}
	z.Remove(z.Origin, dnswire.TypeCDS)
	z.Remove(z.Origin, dnswire.TypeCDNSKEY)
	cds := dnswire.NewRR(z.Origin, 3600, &dnswire.CDS{DS: *ds})
	cdnskey := dnswire.NewRR(z.Origin, 3600, &dnswire.CDNSKEY{DNSKEY: *s.KSK.DNSKEY()})
	for _, rr := range []*dnswire.RR{cds, cdnskey} {
		if err := z.Add(rr); err != nil {
			return err
		}
		p, err := dnssec.PrepareRRSIG([]*dnswire.RR{rr}, s.KSK, z.Origin, s.opts())
		if err != nil {
			return err
		}
		z.resign(rr.Name, rr.Type, p)
	}
	return nil
}
