// Package analysis holds the result types of the paper's measurements —
// per-operator cumulative distributions (Figure 3), deployment time series
// (Figures 4-8) and the per-TLD dataset overview (Table 1) — and the
// record-at-a-time reference that computes them from dataset snapshots.
// Production asks colstore, which answers the same queries from columns;
// the aggregators here are what colstore's equivalence tests and bench/'s
// oracles hold it to.
package analysis

import (
	"sort"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/simtime"
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

// OperatorCount is one operator's domain count under some filter.
type OperatorCount struct {
	Operator string
	Count    int
}

// CountByOperator tallies matching domains per operator, descending.
func CountByOperator(snap *dataset.Snapshot, f Filter) []OperatorCount {
	counts := make(map[string]int)
	for i := range snap.Records {
		r := &snap.Records[i]
		if r.Failed || !f(r) {
			continue
		}
		counts[r.Operator]++
	}
	out := make([]OperatorCount, 0, len(counts))
	for op, n := range counts {
		out = append(out, OperatorCount{Operator: op, Count: n})
	}
	Rank(out)
	return out
}

// Rank orders per-operator counts as Figure 3 ranks operators: count
// descending, operator name breaking ties.
func Rank(counts []OperatorCount) {
	sort.Slice(counts, func(i, j int) bool {
		if counts[i].Count != counts[j].Count {
			return counts[i].Count > counts[j].Count
		}
		return counts[i].Operator < counts[j].Operator
	})
}

// CDFPoint is one step of the operator-coverage CDF of Figure 3: after the
// top Rank operators, CumFrac of the matching domains are covered.
type CDFPoint struct {
	Rank     int
	Operator string
	Count    int
	CumFrac  float64
}

// OperatorCDF computes the cumulative distribution of domains over
// operators ranked by size — the exact construction of Figure 3.
func OperatorCDF(snap *dataset.Snapshot, f Filter) []CDFPoint {
	return CDF(CountByOperator(snap, f))
}

// CDF accumulates ranked per-operator counts into the Figure 3
// distribution; no domains is no distribution (nil).
func CDF(counts []OperatorCount) []CDFPoint {
	total := 0
	for _, c := range counts {
		total += c.Count
	}
	if total == 0 {
		return nil
	}
	out := make([]CDFPoint, len(counts))
	cum := 0
	for i, c := range counts {
		cum += c.Count
		out[i] = CDFPoint{
			Rank: i + 1, Operator: c.Operator, Count: c.Count,
			CumFrac: float64(cum) / float64(total),
		}
	}
	return out
}

// OperatorsToCover returns how many top operators are needed to cover frac
// of the matching domains (e.g. the paper's "26 registrars cover 50% of all
// domains; 2 cover 50% of fully deployed ones").
func OperatorsToCover(cdf []CDFPoint, frac float64) int {
	for _, p := range cdf {
		if p.CumFrac >= frac {
			return p.Rank
		}
	}
	return len(cdf)
}

// CoverageOfTop returns the fraction covered by the top n operators.
func CoverageOfTop(cdf []CDFPoint, n int) float64 {
	if len(cdf) == 0 {
		return 0
	}
	if n > len(cdf) {
		n = len(cdf)
	}
	if n <= 0 {
		return 0
	}
	return cdf[n-1].CumFrac
}

// TopOverlap counts operators appearing in the top n of both CDFs — the
// paper observes only three registrars overlap between the top-25 overall
// and the top-25 fully deployed.
func TopOverlap(a, b []CDFPoint, n int) int {
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

// SeriesPoint is one day of a deployment time series.
type SeriesPoint struct {
	Day simtime.Day
	// Total matching domains (the filter's population).
	Total int
	// WithDNSKEY / WithDS / Full are deployment-state counts within it.
	WithDNSKEY int
	WithDS     int
	Full       int
}

// PctDNSKEY is the percentage of the population with DNSKEYs.
func (p SeriesPoint) PctDNSKEY() float64 { return pct(p.WithDNSKEY, p.Total) }

// PctFull is the percentage fully deployed (DNSKEY + matching DS).
func (p SeriesPoint) PctFull() float64 { return pct(p.Full, p.Total) }

// PctDSGivenDNSKEY is the share of DNSKEY-publishing domains that also have
// a DS — the complement of the paper's Cloudflare 39.3% gap.
func (p SeriesPoint) PctDSGivenDNSKEY() float64 { return pct(p.WithDS, p.WithDNSKEY) }

func pct(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return 100 * float64(a) / float64(b)
}

// Series extracts a time series from the store for records matching f.
func Series(store *dataset.Store, f Filter) []SeriesPoint {
	var out []SeriesPoint
	for _, day := range store.Days() {
		snap := store.Get(day)
		p := SeriesPoint{Day: day}
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

// TLDOverview is one Table 1 row.
type TLDOverview struct {
	TLD        string
	Domains    int
	PctDNSKEY  float64
	PctFull    float64
	PctPartial float64
}

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
