// Package analysis is the record-at-a-time reference for the paper's
// measurements — per-operator cumulative distributions (Figure 3),
// deployment time series (Figures 4-8), the DS gap and the per-TLD dataset
// overview (Table 1) — computed from dataset snapshots. Production asks
// colstore, which owns the result types and answers the same queries from
// columns; the aggregators here are what colstore's equivalence tests and
// bench/'s oracles hold it to. No production package imports this one.
package analysis

import (
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
)

// Filter selects records for an analysis.
type Filter func(*dataset.Record) bool

// All accepts every record.
func All(*dataset.Record) bool { return true }

// PartiallyDeployed selects domains with DNSKEYs but no DS.
func PartiallyDeployed(r *dataset.Record) bool {
	return r.Deployment() == dnssec.DeploymentPartial
}

// FullyDeployed selects domains with a complete, matching chain.
func FullyDeployed(r *dataset.Record) bool {
	return r.Deployment() == dnssec.DeploymentFull
}

// WithDNSKEY selects domains publishing at least one DNSKEY.
func WithDNSKEY(r *dataset.Record) bool { return r.HasDNSKEY }

// InTLD restricts to one TLD.
func InTLD(tld string) Filter {
	return func(r *dataset.Record) bool { return r.TLD == tld }
}

// ByOperator restricts to one grouped DNS operator.
func ByOperator(op string) Filter {
	return func(r *dataset.Record) bool { return r.Operator == op }
}

// And combines filters conjunctively.
func And(fs ...Filter) Filter {
	return func(r *dataset.Record) bool {
		for _, f := range fs {
			if !f(r) {
				return false
			}
		}
		return true
	}
}

// CountByOperator tallies matching domains per operator, descending.
func CountByOperator(snap *dataset.Snapshot, f Filter) []colstore.OperatorCount {
	counts := make(map[string]int)
	for i := range snap.Records {
		r := &snap.Records[i]
		if r.Failed || !f(r) {
			continue
		}
		counts[r.Operator]++
	}
	out := make([]colstore.OperatorCount, 0, len(counts))
	for op, n := range counts {
		out = append(out, colstore.OperatorCount{Operator: op, Count: n})
	}
	colstore.Rank(out)
	return out
}

// OperatorCDF computes the cumulative distribution of domains over
// operators ranked by size — the exact construction of Figure 3.
func OperatorCDF(snap *dataset.Snapshot, f Filter) []colstore.CDFPoint {
	return colstore.CDF(CountByOperator(snap, f))
}

// TopOverlap counts operators appearing in the top n of both CDFs — the
// paper observes only three registrars overlap between the top-25 overall
// and the top-25 fully deployed.
func TopOverlap(a, b []colstore.CDFPoint, n int) int {
	set := make(map[string]bool, n)
	for i := 0; i < n && i < len(a); i++ {
		set[a[i].Operator] = true
	}
	overlap := 0
	for i := 0; i < n && i < len(b); i++ {
		if set[b[i].Operator] {
			overlap++
		}
	}
	return overlap
}

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Series extracts a time series from the store for records matching f.
func Series(store *dataset.Store, f Filter) []colstore.SeriesPoint {
	var out []colstore.SeriesPoint
	for _, day := range store.Days() {
		snap := store.Get(day)
		p := colstore.SeriesPoint{Day: day}
		for i := range snap.Records {
			r := &snap.Records[i]
			if r.Failed || !f(r) {
				continue
			}
			p.Total++
			if r.HasDNSKEY {
				p.WithDNSKEY++
			}
			if r.HasDS {
				p.WithDS++
			}
			if r.Deployment() == dnssec.DeploymentFull {
				p.Full++
			}
		}
		out = append(out, p)
	}
	return out
}

// DSGapPct computes the share of DNSKEY-publishing domains (under the
// filter) that have no DS at the registry — the paper's headline "nearly
// 30% of .com/.net/.org domains do not properly upload DS records even
// though they have DNSKEYs and RRSIGs" (section 1).
func DSGapPct(snap *dataset.Snapshot, f Filter) float64 {
	keyed, gap := 0, 0
	for i := range snap.Records {
		r := &snap.Records[i]
		if r.Failed || !f(r) || !r.HasDNSKEY {
			continue
		}
		keyed++
		if !r.HasDS {
			gap++
		}
	}
	return pct(gap, keyed)
}

// TLDOverview is colstore's Table 1 row, named here for bench/'s oracles.
type TLDOverview = colstore.TLDOverview

// Overview computes the Table 1 dataset summary from a snapshot.
func Overview(snap *dataset.Snapshot, tlds []string) []TLDOverview {
	byTLD := make(map[string]*TLDOverview)
	order := make([]string, 0, len(tlds))
	for _, tld := range tlds {
		byTLD[tld] = &TLDOverview{TLD: tld}
		order = append(order, tld)
	}
	counts := map[string][4]int{} // total, dnskey, full, partial
	for i := range snap.Records {
		r := &snap.Records[i]
		if r.Failed {
			continue
		}
		c := counts[r.TLD]
		c[0]++
		if r.HasDNSKEY {
			c[1]++
		}
		switch r.Deployment() {
		case dnssec.DeploymentFull:
			c[2]++
		case dnssec.DeploymentPartial:
			c[3]++
		}
		counts[r.TLD] = c
	}
	var out []TLDOverview
	for _, tld := range order {
		c := counts[tld]
		o := byTLD[tld]
		o.Domains = c[0]
		o.PctDNSKEY = pct(c[1], c[0])
		o.PctFull = pct(c[2], c[0])
		o.PctPartial = pct(c[3], c[0])
		out = append(out, *o)
	}
	return out
}
