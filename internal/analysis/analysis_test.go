package analysis

import (
	"math"
	"testing"
	"testing/quick"

	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// mkSnap builds a snapshot with count domains per operator spec.
type opSpec struct {
	operator string
	tld      string
	none     int
	partial  int
	full     int
	broken   int
}

func mkSnap(day simtime.Day, specs []opSpec) *dataset.Snapshot {
	snap := &dataset.Snapshot{Day: day}
	add := func(op, tld string, n int, key, ds, valid bool) {
		for i := 0; i < n; i++ {
			snap.Records = append(snap.Records, dataset.Record{
				Domain: "d.tld", TLD: tld, Operator: op,
				HasDNSKEY: key, HasDS: ds, ChainValid: valid,
			})
		}
	}
	for _, s := range specs {
		add(s.operator, s.tld, s.none, false, false, false)
		add(s.operator, s.tld, s.partial, true, false, false)
		add(s.operator, s.tld, s.full, true, true, true)
		add(s.operator, s.tld, s.broken, true, true, false)
	}
	return snap
}

func TestCountByOperatorAndCDF(t *testing.T) {
	snap := mkSnap(0, []opSpec{
		{operator: "big.net", tld: "com", none: 50},
		{operator: "mid.net", tld: "com", none: 20, full: 10},
		{operator: "dnssec.net", tld: "com", full: 15},
		{operator: "tiny.net", tld: "com", none: 5},
	})
	counts := CountByOperator(snap, All)
	if counts[0].Operator != "big.net" || counts[0].Count != 50 {
		t.Errorf("top operator: %+v", counts[0])
	}
	cdf := OperatorCDF(snap, All)
	if len(cdf) != 4 {
		t.Fatalf("cdf size %d", len(cdf))
	}
	if math.Abs(cdf[len(cdf)-1].CumFrac-1.0) > 1e-12 {
		t.Errorf("CDF does not end at 1: %v", cdf[len(cdf)-1].CumFrac)
	}
	// 50/100 at rank 1 → covering 50% needs 1 operator.
	if n := colstore.OperatorsToCover(cdf, 0.5); n != 1 {
		t.Errorf("colstore.OperatorsToCover(all, 0.5) = %d", n)
	}
	// Fully deployed: dnssec.net 15, mid.net 10 → 50% needs 1.
	fullCDF := OperatorCDF(snap, FullyDeployed)
	if n := colstore.OperatorsToCover(fullCDF, 0.5); n != 1 {
		t.Errorf("colstore.OperatorsToCover(full, 0.5) = %d", n)
	}
	if fullCDF[0].Operator != "dnssec.net" {
		t.Errorf("top full operator: %v", fullCDF[0].Operator)
	}
	// Top-2: big.net (50) + mid.net (30 incl. its 10 full) = 80 of 100.
	if got := colstore.CoverageOfTop(cdf, 2); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("colstore.CoverageOfTop(2) = %v", got)
	}
	if got := TopOverlap(cdf, fullCDF, 2); got != 1 { // mid.net appears in both top-2
		t.Errorf("TopOverlap = %d", got)
	}
}

func TestCDFMonotonicProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		snap := &dataset.Snapshot{}
		for i, n := range raw {
			for j := 0; j < int(n%16); j++ {
				snap.Records = append(snap.Records, dataset.Record{
					Operator: string(rune('a' + i%20)), TLD: "com",
				})
			}
		}
		cdf := OperatorCDF(snap, All)
		prevFrac := 0.0
		prevCount := 1 << 30
		for _, p := range cdf {
			if p.CumFrac < prevFrac || p.CumFrac > 1+1e-9 {
				return false
			}
			if p.Count > prevCount {
				return false // counts must be non-increasing by rank
			}
			prevFrac = p.CumFrac
			prevCount = p.Count
		}
		return len(cdf) == 0 || math.Abs(cdf[len(cdf)-1].CumFrac-1) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestSeries(t *testing.T) {
	store := dataset.NewStore()
	store.Add(mkSnap(simtime.Date(2016, 1, 1), []opSpec{
		{operator: "ovh.net", tld: "com", none: 80, full: 20},
	}))
	store.Add(mkSnap(simtime.Date(2016, 6, 1), []opSpec{
		{operator: "ovh.net", tld: "com", none: 70, full: 26, partial: 4},
	}))
	series := Series(store, ByOperator("ovh.net"))
	if len(series) != 2 {
		t.Fatalf("series length %d", len(series))
	}
	if series[0].Total != 100 || series[0].Full != 20 {
		t.Errorf("first point: %+v", series[0])
	}
	if math.Abs(series[0].PctFull()-20) > 1e-9 {
		t.Errorf("PctFull: %v", series[0].PctFull())
	}
	if math.Abs(series[1].PctDNSKEY()-30) > 1e-9 {
		t.Errorf("PctDNSKEY: %v", series[1].PctDNSKEY())
	}
	// DS-given-DNSKEY: 26 of 30.
	if math.Abs(series[1].PctDSGivenDNSKEY()-100*26.0/30.0) > 1e-9 {
		t.Errorf("PctDSGivenDNSKEY: %v", series[1].PctDSGivenDNSKEY())
	}
	// Filters compose.
	empty := Series(store, And(ByOperator("ovh.net"), InTLD("org")))
	if empty[0].Total != 0 {
		t.Errorf("And filter: %+v", empty[0])
	}
}

func TestOverview(t *testing.T) {
	snap := mkSnap(simtime.End, []opSpec{
		{operator: "a.net", tld: "com", none: 970, partial: 10, full: 18, broken: 2},
		{operator: "b.nl", tld: "nl", none: 50, full: 50},
	})
	rows := Overview(snap, []string{"com", "nl", "se"})
	if len(rows) != 3 {
		t.Fatalf("rows: %d", len(rows))
	}
	com := rows[0]
	if com.Domains != 1000 || math.Abs(com.PctDNSKEY-3.0) > 1e-9 {
		t.Errorf("com row: %+v", com)
	}
	if math.Abs(com.PctFull-1.8) > 1e-9 || math.Abs(com.PctPartial-1.0) > 1e-9 {
		t.Errorf("com pcts: %+v", com)
	}
	nl := rows[1]
	if math.Abs(nl.PctDNSKEY-50) > 1e-9 {
		t.Errorf("nl row: %+v", nl)
	}
	if rows[2].Domains != 0 {
		t.Errorf("se row: %+v", rows[2])
	}
}

func TestEmptyInputs(t *testing.T) {
	if cdf := OperatorCDF(&dataset.Snapshot{}, All); cdf != nil {
		t.Error("CDF of empty snapshot should be nil")
	}
	if n := colstore.OperatorsToCover(nil, 0.5); n != 0 {
		t.Errorf("colstore.OperatorsToCover(nil) = %d", n)
	}
	if colstore.CoverageOfTop(nil, 3) != 0 {
		t.Error("colstore.CoverageOfTop(nil)")
	}
}
