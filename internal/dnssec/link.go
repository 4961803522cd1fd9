package dnssec

import (
	"context"
	"errors"
	"fmt"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// One link of a chain of trust is three record sets and one verdict over
// them: the DS RRset the parent publishes, the DNSKEY RRset the child
// serves, the RRSIGs over that DNSKEY RRset, and whether a signature
// verifies under a key a DS matches (RFC 4035 section 5.2). Everything in
// the module that needs the verdict — the validator, the sweep, the
// administrator's checker, the registries' audits, a registrar checking an
// uploaded DS — gets it from Link, over an RRSet that ExtractRRSet picked
// out of a response and, where the set has to be fetched from a
// delegation's nameservers first, FetchKeys.

// RRSet groups the records of one (name, type) together with their
// signatures, as fetched from the DNS. For negative answers, Authority
// carries the response's authority section (SOA plus NSEC/NSEC3 proofs) and
// NXDomain records the rcode, so the validator can authenticate the denial.
type RRSet struct {
	RRs  []*dnswire.RR
	Sigs []*dnswire.RRSIG
	// Authority is the authority section of the response (negative answers).
	Authority []*dnswire.RR
	// NXDomain is set when the response rcode was NXDOMAIN.
	NXDomain bool
}

// ExtractRRSet picks out of one section of a response the records of type t
// owned by name, together with the RRSIGs covering them.
func ExtractRRSet(section []*dnswire.RR, name string, t dnswire.Type) *RRSet {
	name = dnswire.CanonicalName(name)
	set := &RRSet{}
	for _, rr := range section {
		if rr.Name != name {
			continue
		}
		if rr.Type == t {
			set.RRs = append(set.RRs, rr)
		} else if sig, ok := rr.Data.(*dnswire.RRSIG); ok && sig.TypeCovered == t {
			set.Sigs = append(set.Sigs, sig)
		}
	}
	return set
}

// Empty reports whether the set holds no records.
func (s *RRSet) Empty() bool { return s == nil || len(s.RRs) == 0 }

// Keys returns the set's records as DNSKEYs (none for a set of another
// type).
func (s *RRSet) Keys() []*dnswire.DNSKEY {
	if s.Empty() {
		return nil
	}
	keys := make([]*dnswire.DNSKEY, 0, len(s.RRs))
	for _, rr := range s.RRs {
		if dk, ok := rr.Data.(*dnswire.DNSKEY); ok {
			keys = append(keys, dk)
		}
	}
	return keys
}

// DS returns the set's records as DS records (none for a set of another
// type).
func (s *RRSet) DS() []*dnswire.DS {
	if s.Empty() {
		return nil
	}
	out := make([]*dnswire.DS, 0, len(s.RRs))
	for _, rr := range s.RRs {
		if ds, ok := rr.Data.(*dnswire.DS); ok {
			out = append(out, ds)
		}
	}
	return out
}

// ErrUnsigned reports an RRset that carries no RRSIG.
var ErrUnsigned = errors.New("dnssec: RRset is unsigned")

// VerifiedBy reports whether some signature over the set verifies under one
// of keys at time now: nil when one does, otherwise the last signature's
// failure, or ErrUnsigned for a set without signatures.
func (s *RRSet) VerifiedBy(keys []*dnswire.DNSKEY, now time.Time) error {
	err := ErrUnsigned
	for _, sig := range s.Sigs {
		if err = VerifyWithAnyKey(s.RRs, sig, keys, now); err == nil {
			return nil
		}
	}
	return err
}

// SigFault says why one RRSIG over a DNSKEY RRset did not establish the
// link.
type SigFault int

const (
	// SigInvalid: the signature does not verify under the key that made it.
	SigInvalid SigFault = iota
	// SigExpired: the validity window closed before the validation time.
	SigExpired
	// SigNotYetValid: the validity window opens after the validation time.
	SigNotYetValid
	// SigUntrustedKey: the signature was made by a key no DS matches — it
	// may well verify, but nothing the parent published vouches for it.
	SigUntrustedKey
)

// ErrUntrustedSigner is the Err of a SigUntrustedKey failure.
var ErrUntrustedSigner = errors.New("dnssec: RRSIG made by a key no DS matches")

// SigFailure is one RRSIG over the DNSKEY RRset that did not establish the
// link, and why.
type SigFailure struct {
	Sig   *dnswire.RRSIG
	Fault SigFault
	Err   error
}

// ZoneLink is the validation evidence for one zone in a chain of trust.
type ZoneLink struct {
	Zone      string
	HasDS     bool // DS RRset present at the parent
	HasDNSKEY bool
	DSMatches bool // some DS matches some DNSKEY
	// KeysValid: a signature over the DNSKEY RRset verifies under a key
	// some DS matches. It implies DSMatches, which implies HasDNSKEY.
	KeysValid bool
	// SigFailures lists the RRSIGs over the DNSKEY RRset that did not
	// establish the link. Without any DS there is no key to hold them to,
	// and they are graded under the set's own keys instead: whether the
	// zone would validate once a DS is published (the paper's partial
	// deployment).
	SigFailures []SigFailure
}

// SigError explains a link with DSMatches and without KeysValid.
func (l *ZoneLink) SigError() string {
	if len(l.SigFailures) == 0 {
		return "DNSKEY RRset is unsigned"
	}
	return l.SigFailures[0].Err.Error()
}

// Link judges one link of a chain of trust: zone's DNSKEY RRset (with the
// RRSIGs covering it) against the DS set its parent publishes, at time now.
func Link(zone string, parentDS []*dnswire.DS, keySet *RRSet, now time.Time) ZoneLink {
	zone = dnswire.CanonicalName(zone)
	keys := keySet.Keys()
	link := ZoneLink{Zone: zone, HasDS: len(parentDS) > 0, HasDNSKEY: len(keys) > 0}
	if !link.HasDNSKEY {
		return link
	}
	signers := keys
	if link.HasDS {
		signers = nil
		for _, dk := range keys {
			for _, ds := range parentDS {
				if MatchDS(zone, ds, dk) {
					signers = append(signers, dk)
					break
				}
			}
		}
		if link.DSMatches = len(signers) > 0; !link.DSMatches {
			return link
		}
	}
	for _, sig := range keySet.Sigs {
		err := VerifyWithAnyKey(keySet.RRs, sig, signers, now)
		if err == nil {
			// Under the set's own keys (no DS) this proves nothing.
			link.KeysValid = link.DSMatches
			continue
		}
		f := SigFailure{Sig: sig, Fault: SigInvalid, Err: err}
		switch ts := uint32(now.Unix()); {
		case ts > sig.Expiration:
			f.Fault = SigExpired
		case ts < sig.Inception:
			f.Fault = SigNotYetValid
		case errors.Is(err, ErrKeyTagMismatch):
			f.Fault, f.Err = SigUntrustedKey, ErrUntrustedSigner
		}
		link.SigFailures = append(link.SigFailures, f)
	}
	return link
}

// Exchanger is the one method of exchange.Exchanger FetchKeys calls,
// declared here because package exchange sits above this one.
type Exchanger interface {
	Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error)
}

// FetchKeys asks the nameservers of a delegation for zone's apex DNSKEY
// RRset and the RRSIGs covering it. Hosts are tried in the order given.
// Every host is tried before the zone is called keyless (an empty set and
// no error): a host that answers without keys may be lame for the zone
// while its sibling serves them. A zone none of whose hosts answered was
// not observed, which is an error and never "no keys".
func FetchKeys(ctx context.Context, ex Exchanger, id uint16, zone string, hosts []string) (*RRSet, error) {
	lastErr := errors.New("no nameservers")
	answered := false
	for _, host := range hosts {
		// A query of its own per host: an exchange that timed out may
		// still be reading the last one.
		q := dnswire.NewQuery(id, zone, dnswire.TypeDNSKEY)
		q.SetEDNS(4096, true)
		resp, err := ex.Exchange(ctx, host, q)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.RCode != dnswire.RCodeSuccess {
			lastErr = fmt.Errorf("%v from %s", resp.RCode, host)
			continue
		}
		answered = true
		if set := ExtractRRSet(resp.Answers, zone, dnswire.TypeDNSKEY); !set.Empty() {
			return set, nil
		}
	}
	if !answered {
		return nil, fmt.Errorf("fetching DNSKEY %s: %w", zone, lastErr)
	}
	return &RRSet{}, nil
}
