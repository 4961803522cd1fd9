package dnssec

import (
	"context"
	"fmt"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// Status is the DNSSEC validation outcome for an RRset, following the
// RFC 4035 section 4.3 vocabulary.
type Status int

const (
	// Indeterminate: validation could not run (e.g. lookup failure).
	Indeterminate Status = iota
	// Insecure: some zone in the chain has no DS RRset, so the target is
	// provably outside the signed part of the tree.
	Insecure
	// Bogus: records exist that should validate but do not (bad signature,
	// mismatched DS, expired RRSIG, missing DNSKEY).
	Bogus
	// Secure: an unbroken chain of trust from the anchor validates the
	// target RRset.
	Secure
)

// String returns the conventional name of the status.
func (s Status) String() string {
	switch s {
	case Secure:
		return "secure"
	case Insecure:
		return "insecure"
	case Bogus:
		return "bogus"
	}
	return "indeterminate"
}

// Deployment is the paper's classification of a domain's DNSSEC state
// (section 2, Figure 1).
type Deployment int

const (
	// DeploymentNone: no DNSKEY published.
	DeploymentNone Deployment = iota
	// DeploymentPartial: DNSKEY and RRSIGs published but no DS at the parent
	// — the chain of trust is broken and validation is impossible, so the
	// deployment has "limited value".
	DeploymentPartial
	// DeploymentFull: DNSKEY, RRSIGs and a matching DS exist; the chain
	// validates.
	DeploymentFull
	// DeploymentBroken: records exist on both sides but do not validate
	// (e.g. a registrar installed a garbage DS) — worse than no DNSSEC,
	// because validating resolvers will refuse to resolve the domain.
	DeploymentBroken
)

// String returns the classification name.
func (d Deployment) String() string {
	switch d {
	case DeploymentPartial:
		return "partial"
	case DeploymentFull:
		return "full"
	case DeploymentBroken:
		return "broken"
	}
	return "none"
}

// Classify derives the deployment class from observed record presence and
// chain validity.
func Classify(hasDNSKEY, hasDS, chainValid bool) Deployment {
	switch {
	case !hasDNSKEY && !hasDS:
		return DeploymentNone
	case hasDNSKEY && !hasDS:
		return DeploymentPartial
	case chainValid:
		return DeploymentFull
	default:
		return DeploymentBroken
	}
}

// Fetcher supplies the validator with RRsets and with the zone-cut structure
// of the namespace. A validating resolver implements this against live
// servers; tests implement it over in-memory zones.
type Fetcher interface {
	// FetchRRSet returns the RRset (with signatures) for name/type. A
	// nonexistent RRset is returned as an empty, non-error result.
	FetchRRSet(ctx context.Context, name string, t dnswire.Type) (*RRSet, error)
	// Cuts returns the chain of zone apexes from the root to the zone
	// containing name, e.g. ["", "com", "example.com"] for
	// "www.example.com".
	Cuts(ctx context.Context, name string) ([]string, error)
}

// Result is the full outcome of a chain validation.
type Result struct {
	Status Status
	// Reason is a human-readable explanation for non-Secure outcomes.
	Reason string
	// Chain holds one link per zone from the root to the target's zone.
	Chain []ZoneLink
}

// Validator walks chains of trust from a configured trust anchor.
type Validator struct {
	// Anchor is the trusted DS set for the root zone (analogous to the root
	// trust anchor distributed with resolvers).
	Anchor []*dnswire.DS
	// Fetch supplies records.
	Fetch Fetcher
	// Now supplies the validation time; time.Now when nil.
	Now func() time.Time
}

func (v *Validator) now() time.Time {
	if v.Now != nil {
		return v.Now()
	}
	return time.Now()
}

// Validate checks the chain of trust for the RRset (name, t) and, when the
// chain is intact, verifies the target RRset itself.
func (v *Validator) Validate(ctx context.Context, name string, t dnswire.Type) (*Result, error) {
	name = dnswire.CanonicalName(name)
	cuts, err := v.Fetch.Cuts(ctx, name)
	if err != nil {
		return &Result{Status: Indeterminate, Reason: err.Error()}, err
	}
	res := &Result{}
	ds := v.Anchor
	var zoneKeys []*dnswire.DNSKEY
	for i, zone := range cuts {
		if len(ds) == 0 {
			// The parent did not delegate securely: everything below is
			// provably insecure.
			res.Chain = append(res.Chain, ZoneLink{Zone: zone})
			res.Status = Insecure
			res.Reason = fmt.Sprintf("no DS for zone %q", present(zone))
			return res, nil
		}
		keySet, err := v.Fetch.FetchRRSet(ctx, zone, dnswire.TypeDNSKEY)
		if err != nil {
			res.Chain = append(res.Chain, ZoneLink{Zone: zone, HasDS: true})
			res.Status = Indeterminate
			res.Reason = fmt.Sprintf("fetching DNSKEY %s: %v", zone, err)
			return res, nil
		}
		link := Link(zone, ds, keySet, v.now())
		res.Chain = append(res.Chain, link)
		if !link.KeysValid {
			res.Status = Bogus
			switch {
			case !link.HasDNSKEY:
				res.Reason = fmt.Sprintf("zone %q has DS but no DNSKEY", present(zone))
			case !link.DSMatches:
				res.Reason = fmt.Sprintf("no DS matches a DNSKEY of %q", present(zone))
			default:
				res.Reason = fmt.Sprintf("DNSKEY RRset of %q does not verify: %s", present(zone), link.SigError())
			}
			return res, nil
		}
		// Every key of a validated DNSKEY RRset may sign the zone's data.
		zoneKeys = keySet.Keys()
		if i == len(cuts)-1 {
			break
		}
		// Fetch the DS set the current zone publishes for the next cut.
		child := cuts[i+1]
		dsSet, err := v.Fetch.FetchRRSet(ctx, child, dnswire.TypeDS)
		if err != nil {
			res.Status = Indeterminate
			res.Reason = err.Error()
			return res, nil
		}
		if !dsSet.Empty() {
			// The DS RRset lives in the parent zone and must verify under
			// the parent's keys.
			if err := dsSet.VerifiedBy(zoneKeys, v.now()); err != nil {
				res.Status = Bogus
				res.Reason = fmt.Sprintf("DS RRset for %q does not verify: %v", child, err)
				return res, nil
			}
		}
		ds = dsSet.DS()
	}
	// Chain is intact down to the target's zone; verify the target RRset.
	target, err := v.Fetch.FetchRRSet(ctx, name, t)
	if err != nil {
		res.Status = Indeterminate
		res.Reason = err.Error()
		return res, nil
	}
	if target.Empty() {
		// Negative answer under an intact chain: grade the denial proof.
		res.Status, res.Reason = v.gradeDenial(name, t, cuts[len(cuts)-1], target, zoneKeys)
		return res, nil
	}
	if err := target.VerifiedBy(zoneKeys, v.now()); err != nil {
		res.Status = Bogus
		res.Reason = fmt.Sprintf("RRset %s/%v does not verify: %v", name, t, err)
		return res, nil
	}
	res.Status = Secure
	return res, nil
}

// gradeDenial authenticates a negative answer using the NSEC or NSEC3
// records in the authority section (RFC 4035 section 5.4, RFC 5155 section
// 8). Zones signed without denial chains yield Indeterminate — the records
// are absent, not forged — which is how several measurement tools grade
// "insecure denial" too.
func (v *Validator) gradeDenial(name string, t dnswire.Type, zone string, target *RRSet, zoneKeys []*dnswire.DNSKEY) (Status, string) {
	now := v.now()
	// NSEC3 takes precedence when present.
	if n3 := ExtractNSEC3Proofs(target.Authority); len(n3) > 0 {
		params := nsec3ParamsFromProofs(n3)
		var err error
		if target.NXDomain {
			err = VerifyNameDenialNSEC3(name, zone, params, n3, zoneKeys, now)
		} else {
			err = VerifyTypeDenialNSEC3(name, t, params, n3, zoneKeys, now)
		}
		if err != nil {
			return Bogus, fmt.Sprintf("NSEC3 denial of %s/%v does not verify: %v", name, t, err)
		}
		return Secure, "denial of existence proven (NSEC3)"
	}
	if proofs := ExtractDenialProofs(target.Authority); len(proofs) > 0 {
		var err error
		if target.NXDomain {
			err = VerifyNameDenial(name, proofs, zoneKeys, now)
		} else {
			err = VerifyTypeDenial(name, t, proofs, zoneKeys, now)
		}
		if err != nil {
			return Bogus, fmt.Sprintf("NSEC denial of %s/%v does not verify: %v", name, t, err)
		}
		return Secure, "denial of existence proven (NSEC)"
	}
	return Indeterminate, fmt.Sprintf("no data for %s/%v and no denial proof offered", name, t)
}

// nsec3ParamsFromProofs reconstructs the NSEC3 parameters from the proofs
// themselves (every record carries them).
func nsec3ParamsFromProofs(proofs []*NSEC3Proof) *dnswire.NSEC3PARAM {
	p := proofs[0].NSEC3
	return &dnswire.NSEC3PARAM{
		HashAlg: p.HashAlg, Iterations: p.Iterations,
		Salt: append([]byte(nil), p.Salt...),
	}
}

func present(zone string) string {
	if zone == "" {
		return "."
	}
	return zone
}
