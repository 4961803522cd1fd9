package main

import (
	"math"
	"sort"
)

// quantile returns the q-quantile of sorted (ascending) by linear
// interpolation between closest ranks; it is NaN for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

func sortedCopy(v []float64) []float64 {
	out := append([]float64(nil), v...)
	sort.Float64s(out)
	return out
}

func median(v []float64) float64 { return quantile(sortedCopy(v), 0.5) }

// tailLadder are the tail percentiles a latency may be reported at. oneIn is
// the percentile as a rate — p99 leaves one sample in a hundred beyond it —
// so "ten samples beyond" is the integer test n >= 10*oneIn. (As a float,
// 100*(1-0.9) is 9.999999999999998 and the rule dropped a rung at exactly
// the boundary counts.)
var tailLadder = []struct {
	label string
	q     float64
	oneIn int
}{
	{"p90", 0.90, 10}, {"p99", 0.99, 100}, {"p99.9", 0.999, 1000}, {"p99.99", 0.9999, 10000},
}

// tailPercentile applies the reporting rule: the highest percentile of the
// ladder that still has at least ten samples beyond it. ok is false below
// 100 samples, where not even p90 qualifies and only the median is reported.
func tailPercentile(n int) (label string, q float64, ok bool) {
	for _, t := range tailLadder {
		if n >= 10*t.oneIn {
			label, q, ok = t.label, t.q, true
		}
	}
	return label, q, ok
}

// latencySummary is how every latency is reported: the median, the highest
// percentile the sample count supports, and the count itself.
type latencySummary struct {
	Samples   int     `json:"samples"`
	MedianUs  float64 `json:"median_us"`
	TailLabel string  `json:"tail,omitempty"`
	TailUs    float64 `json:"tail_us,omitempty"`
}

func summarizeLatency(us []float64) latencySummary {
	s := sortedCopy(us)
	out := latencySummary{Samples: len(s), MedianUs: quantile(s, 0.5)}
	if label, q, ok := tailPercentile(len(s)); ok {
		out.TailLabel, out.TailUs = label, quantile(s, q)
	}
	return out
}
