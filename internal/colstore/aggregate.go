package colstore

import (
	"runtime"
	"sync"

	"securepki.org/registrarsec/internal/simtime"
)

// Class selects a deployment population for an aggregation, mirroring the
// reference engine's record filters over the columnar layout.
type Class uint8

const (
	// ClassAny matches every measured domain (the "all domains" CDF).
	ClassAny Class = iota
	// ClassDNSKEY matches domains publishing at least one DNSKEY.
	ClassDNSKEY
	// ClassPartial matches DNSKEY-but-no-DS domains.
	ClassPartial
	// ClassFull matches complete, matching chains.
	ClassFull
	// ClassBroken matches domains with a DS that validates nothing.
	ClassBroken
	// ClassNone matches domains with neither DNSKEY nor DS.
	ClassNone
)

// matches classifies domain i at day d. The branch structure mirrors
// dnssec.Classify(hasDNSKEY, hasDS, chainValid) exactly, with chainValid
// folded into the precomputed fullDay column.
func (x *Index) matches(i int, d int32, c Class) bool {
	switch c {
	case ClassAny:
		return true
	case ClassDNSKEY:
		return x.keyDay[i] <= d
	case ClassPartial:
		return x.keyDay[i] <= d && x.dsDay[i] > d
	case ClassFull:
		return x.fullDay[i] <= d
	case ClassBroken:
		return x.dsDay[i] <= d && x.fullDay[i] > d
	case ClassNone:
		return x.keyDay[i] > d && x.dsDay[i] > d
	}
	return false
}

// aggShardMin is the smallest per-worker slice worth a goroutine; tiny
// populations aggregate serially.
const aggShardMin = 16 << 10

// scratch recycles the per-worker tallies of the sharded aggregations.
var scratch = sync.Pool{New: func() any { return new([]int32) }}

// tally runs count over every row into size dense counters and returns
// them. The rows shard across up to GOMAXPROCS workers of at least
// aggShardMin rows each; each worker counts its stride into a recycled,
// zeroed []int32 (no string keys, no maps), and the shards merge at the end.
func (x *Index) tally(size int, count func(lo, hi int, t []int32)) []int32 {
	out := make([]int32, size)
	workers := min(runtime.GOMAXPROCS(0), x.n/aggShardMin)
	if workers <= 1 {
		count(0, x.n, out)
		return out
	}
	var (
		wg     sync.WaitGroup
		mu     sync.Mutex
		stride = (x.n + workers - 1) / workers
	)
	for lo := 0; lo < x.n; lo += stride {
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			bufp := scratch.Get().(*[]int32)
			if cap(*bufp) < size {
				*bufp = make([]int32, size)
			}
			buf := (*bufp)[:size]
			clear(buf)
			count(lo, hi, buf)
			mu.Lock()
			for i, n := range buf {
				out[i] += n
			}
			mu.Unlock()
			scratch.Put(bufp)
		}(lo, min(lo+stride, x.n))
	}
	wg.Wait()
	return out
}

// CountByOperator tallies matching domains per operator at the given day,
// ranked by Rank, without a materialized snapshot or a string-keyed map.
func (x *Index) CountByOperator(day simtime.Day, c Class, tlds ...string) []OperatorCount {
	x.mustOpen()
	d, tldMask := clampDay(day), x.tldMask(tlds)
	counts := x.tally(len(x.ops), func(lo, hi int, t []int32) {
		for i := lo; i < hi; i++ {
			if (tldMask == nil || tldMask[x.tldID[i]]) && x.matches(i, d, c) {
				t[x.opID[i]]++
			}
		}
	})
	out := make([]OperatorCount, 0, len(counts))
	for id, n := range counts {
		if n > 0 {
			out = append(out, OperatorCount{Operator: x.ops[id], Count: int(n)})
		}
	}
	Rank(out)
	return out
}

// OperatorCDF computes the Figure 3 cumulative distribution of domains
// over operators ranked by size.
func (x *Index) OperatorCDF(day simtime.Day, c Class, tlds ...string) []CDFPoint {
	return CDF(x.CountByOperator(day, c, tlds...))
}

// Overview computes the Table 1 per-TLD dataset summary at the given day:
// one row per entry of tlds, a TLD named twice answered twice, and an
// unknown one with zeros. The sharded tally keeps four counters per
// interned TLD.
func (x *Index) Overview(day simtime.Day, tlds []string) []TLDOverview {
	x.mustOpen()
	d := clampDay(day)
	// Per TLD: total, DNSKEY, full, partial.
	c := x.tally(4*len(x.tlds), func(lo, hi int, t []int32) {
		for i := lo; i < hi; i++ {
			k := 4 * int(x.tldID[i])
			t[k]++
			hasKey := x.keyDay[i] <= d
			if hasKey {
				t[k+1]++
			}
			if x.fullDay[i] <= d {
				t[k+2]++
			} else if hasKey && x.dsDay[i] > d {
				t[k+3]++
			}
		}
	})
	out := make([]TLDOverview, len(tlds))
	for row, tld := range tlds {
		var n [4]int
		if id, ok := x.tldIDs[tld]; ok {
			for k := range n {
				n[k] = int(c[4*int(id)+k])
			}
		}
		out[row] = TLDOverview{
			TLD:        tld,
			Domains:    n[0],
			PctDNSKEY:  pct(n[1], n[0]),
			PctFull:    pct(n[2], n[0]),
			PctPartial: pct(n[3], n[0]),
		}
	}
	return out
}

// DSGapPct computes the share of DNSKEY-publishing domains without a DS at
// the given day.
func (x *Index) DSGapPct(day simtime.Day, tlds ...string) float64 {
	x.mustOpen()
	d := clampDay(day)
	tldMask := x.tldMask(tlds)
	keyed, gap := 0, 0
	for i := 0; i < x.n; i++ {
		if tldMask != nil && !tldMask[x.tldID[i]] {
			continue
		}
		if x.keyDay[i] > d {
			continue
		}
		keyed++
		if x.dsDay[i] > d {
			gap++
		}
	}
	return pct(gap, keyed)
}
