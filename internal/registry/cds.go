package registry

import (
	"context"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/simtime"
)

// CDSReport summarizes one CDS/CDNSKEY polling sweep (RFC 7344, RFC 8078).
type CDSReport struct {
	Day simtime.Day
	// Scanned is the number of registrations polled.
	Scanned int
	// Updated counts DS RRsets replaced from authenticated CDS records.
	Updated int
	// Bootstrapped counts initial DS publications accepted from insecure
	// CDS records (RFC 8078 section 3 "accept with policy").
	Bootstrapped int
	// Removed counts DS RRsets deleted via the algorithm-0 sentinel.
	Removed int
	// Rejected counts CDS RRsets that failed authentication.
	Rejected int
}

// ScanCDS polls every registration's apex for CDS records and applies
// authenticated changes to the registry DS database. When bootstrap is
// true, domains without an existing DS may establish one from an
// (unauthenticated but self-consistent) CDS — the policy .cz adopted; with
// bootstrap false only domains already in the chain of trust can roll keys.
//
// This is the mechanism the paper's section 8 recommends registries deploy
// to remove the human DS-relay step entirely.
func (r *Registry) ScanCDS(ctx context.Context, ex exchange.Exchanger, day simtime.Day, bootstrap bool) (*CDSReport, error) {
	if !r.cfg.SupportsCDS {
		return nil, ErrNoDNSSEC
	}
	r.mu.RLock()
	type item struct {
		domain string
		regID  string
		ns     []string
		ds     []*dnswire.DS
	}
	var items []item
	for d, reg := range r.regs {
		items = append(items, item{d, reg.RegistrarID, append([]string(nil), reg.NS...), append([]*dnswire.DS(nil), reg.DS...)})
	}
	r.mu.RUnlock()

	report := &CDSReport{Day: day}
	var qid uint16
	for _, it := range items {
		report.Scanned++
		qid++
		cdsSet := fetchCDS(ctx, ex, qid, it.domain, it.ns)
		if cdsSet.Empty() {
			continue
		}
		keySet, err := dnssec.FetchKeys(ctx, ex, qid, it.domain, it.ns)
		if err != nil {
			report.Rejected++
			continue
		}
		var cds []*dnswire.CDS
		for _, rr := range cdsSet.RRs {
			cds = append(cds, rr.Data.(*dnswire.CDS))
		}
		newDS, remove := dnssec.DSFromCDS(cds)
		keys := keySet.Keys()
		// In either case the CDS RRset must verify under a served key.
		authenticated := cdsSet.VerifiedBy(keys, day.Time()) == nil
		if len(it.ds) > 0 {
			// RFC 7344: the CDS must be signed by a key that the current
			// chain of trust (existing DS) vouches for — the served key
			// set has to be a valid link under the DS on file.
			authenticated = authenticated && dnssec.Link(it.domain, it.ds, keySet, day.Time()).KeysValid
		} else {
			// No existing DS: accept a self-consistent CDS that matches a
			// served DNSKEY, when policy allows (TOFU).
			authenticated = authenticated && bootstrap && !remove && dnssec.MatchAnyDS(it.domain, newDS, keys)
		}
		if !authenticated {
			report.Rejected++
			continue
		}
		if err := r.apply(it.regID, false, change{domain: it.domain, ds: newDS, setDS: true}); err != nil {
			continue
		}
		switch {
		case remove:
			report.Removed++
		case len(it.ds) == 0:
			report.Bootstrapped++
		default:
			report.Updated++
		}
	}
	return report, nil
}

// fetchCDS queries a domain's nameservers for its CDS RRset (with
// signatures); the set is empty when no host answered.
func fetchCDS(ctx context.Context, ex exchange.Exchanger, qid uint16, domain string, ns []string) *dnssec.RRSet {
	q := dnswire.NewQuery(qid, domain, dnswire.TypeCDS)
	q.SetEDNS(4096, true)
	for _, host := range ns {
		if resp, err := ex.Exchange(ctx, host, q); err == nil && resp.RCode == dnswire.RCodeSuccess {
			return dnssec.ExtractRRSet(resp.Answers, domain, dnswire.TypeCDS)
		}
	}
	return &dnssec.RRSet{}
}
