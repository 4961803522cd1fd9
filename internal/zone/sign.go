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
	// KeyTTL is the DNSKEY RRset TTL (default 3600).
	KeyTTL uint32
}

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
// installs the DNSKEY RRset, optionally builds the NSEC chain, and produces
// RRSIGs for every authoritative RRset. Delegation NS RRsets and glue below
// cuts are left unsigned, DS RRsets at cuts are signed, per RFC 4035
// section 2.2.
func (s *Signer) Sign(z *Zone) error {
	if s.KSK == nil || s.ZSK == nil {
		return errors.New("zone: signer requires both KSK and ZSK")
	}
	keyTTL := s.KeyTTL
	if keyTTL == 0 {
		keyTTL = 3600
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
		if err := s.addNSEC3Chain(z); err != nil {
			return err
		}
	case s.AddNSEC:
		if err := s.addNSECChain(z); err != nil {
			return err
		}
	}

	// Collect the signing work first: signing mutates the zone and RRSets
	// iteration must not observe the records it adds.
	type task struct {
		name string
		typ  dnswire.Type
		rrs  []*dnswire.RR
	}
	var tasks []task
	var signErr error
	z.RRSets(func(name string, t dnswire.Type, rrs []*dnswire.RR) {
		if t == dnswire.TypeRRSIG {
			return
		}
		cut, _ := z.DelegationFor(name)
		if cut != "" {
			// At the cut itself only the DS RRset (and NSEC) is
			// authoritative; below the cut everything is glue.
			if name != cut || (t != dnswire.TypeDS && t != dnswire.TypeNSEC) {
				return
			}
		}
		tasks = append(tasks, task{name, t, rrs})
	})
	for _, tk := range tasks {
		sig, err := s.SignRRSet(z.Origin, tk.rrs)
		if err != nil {
			signErr = fmt.Errorf("zone %s: signing %s/%v: %w", present(z.Origin), tk.name, tk.typ, err)
			break
		}
		if err := z.Add(sig); err != nil {
			signErr = err
			break
		}
	}
	return signErr
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
		var types []dnswire.Type
		for t := range z.LookupAll(n) {
			types = append(types, t)
		}
		types = append(types, dnswire.TypeNSEC, dnswire.TypeRRSIG)
		if err := z.Add(dnswire.NewRR(n, minTTL, &dnswire.NSEC{NextName: next, Types: types})); err != nil {
			return err
		}
	}
	return nil
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
		var types []dnswire.Type
		for t := range z.LookupAll(e.owner) {
			types = append(types, t)
		}
		types = append(types, dnswire.TypeRRSIG)
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
// existing RRSIGs covering it. Registries use this to maintain DS RRsets
// incrementally as registrars upload records, instead of re-signing the
// whole multi-million-entry TLD zone.
func (s *Signer) SignSet(z *Zone, name string, t dnswire.Type) error {
	z.RemoveSigs(name, t)
	rrs := z.Lookup(name, t)
	if len(rrs) == 0 {
		return nil
	}
	sig, err := s.SignRRSet(z.Origin, rrs)
	if err != nil {
		return err
	}
	return z.Add(sig)
}

// SignRRSet produces the RRSIG over one RRset of the zone rooted at origin
// — the KSK signs a DNSKEY RRset, the ZSK anything else — without touching
// a zone, so callers can sign from several goroutines and add the results
// in an order of their choosing.
func (s *Signer) SignRRSet(origin string, rrs []*dnswire.RR) (*dnswire.RR, error) {
	if len(rrs) == 0 {
		return nil, dnssec.ErrEmptyRRSet
	}
	key := s.ZSK
	if rrs[0].Type == dnswire.TypeDNSKEY {
		key = s.KSK
	}
	return dnssec.SignRRSet(rrs, key, origin, s.opts())
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
// apex and signs them, signalling the parent to update its DS RRset
// (RFC 7344).
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
		sig, err := dnssec.SignRRSet([]*dnswire.RR{rr}, s.KSK, z.Origin, s.opts())
		if err != nil {
			return err
		}
		if err := z.Add(sig); err != nil {
			return err
		}
	}
	return nil
}
