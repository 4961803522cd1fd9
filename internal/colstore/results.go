package colstore

import (
	"sort"

	"securepki.org/registrarsec/internal/simtime"
)

// TLDOverview is one Table 1 row.
type TLDOverview struct {
	TLD        string
	Domains    int
	PctDNSKEY  float64
	PctFull    float64
	PctPartial float64
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

// OperatorCount is one operator's domain count under some filter.
type OperatorCount struct {
	Operator string
	Count    int
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
