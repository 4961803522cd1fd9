package colstore_test

import (
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/simtime"
)

// The columnar aggregations against internal/analysis's record-at-a-time
// reference over the same population's materialized snapshot.

func classFilter(c colstore.Class) analysis.Filter {
	switch c {
	case colstore.ClassAny:
		return analysis.All
	case colstore.ClassDNSKEY:
		return analysis.WithDNSKEY
	case colstore.ClassPartial:
		return analysis.PartiallyDeployed
	case colstore.ClassFull:
		return analysis.FullyDeployed
	case colstore.ClassBroken:
		return func(r *dataset.Record) bool { return r.Deployment() == dnssec.DeploymentBroken }
	case colstore.ClassNone:
		return func(r *dataset.Record) bool { return r.Deployment() == dnssec.DeploymentNone }
	}
	panic("unknown class")
}

func tldFilter(tlds []string) analysis.Filter {
	if len(tlds) == 0 {
		return analysis.All
	}
	set := map[string]bool{}
	for _, t := range tlds {
		set[t] = true
	}
	return func(r *dataset.Record) bool { return set[r.TLD] }
}

func TestAggregationsMatchAnalysis(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 15; trial++ {
		domains := colstore.RandomDomains(rng, rng.Intn(600))
		idx := colstore.BuildIndex(domains)
		day := simtime.Day(rng.Intn(900) - 50)
		snap := colstore.RefSnapshot(domains, day)
		tldSets := [][]string{nil, {"com", "net", "org"}, {"se"}, {"nosuch"}}
		for _, tlds := range tldSets {
			for _, c := range []colstore.Class{colstore.ClassAny, colstore.ClassDNSKEY, colstore.ClassPartial, colstore.ClassFull, colstore.ClassBroken, colstore.ClassNone} {
				f := analysis.And(tldFilter(tlds), classFilter(c))
				gotCounts := idx.CountByOperator(day, c, tlds...)
				wantCounts := analysis.CountByOperator(snap, f)
				if len(gotCounts) == 0 && len(wantCounts) == 0 {
					// DeepEqual distinguishes nil from empty; both mean none.
				} else if !reflect.DeepEqual(gotCounts, wantCounts) {
					t.Fatalf("trial %d class %d tlds %v: counts mismatch\ngot  %v\nwant %v",
						trial, c, tlds, gotCounts, wantCounts)
				}
				gotCDF := idx.OperatorCDF(day, c, tlds...)
				wantCDF := analysis.OperatorCDF(snap, f)
				if !reflect.DeepEqual(gotCDF, wantCDF) {
					t.Fatalf("trial %d class %d tlds %v: CDF mismatch", trial, c, tlds)
				}
			}
			gotGap := idx.DSGapPct(day, tlds...)
			wantGap := analysis.DSGapPct(snap, tldFilter(tlds))
			if gotGap != wantGap {
				t.Fatalf("trial %d tlds %v: DS gap %.6f != %.6f", trial, tlds, gotGap, wantGap)
			}
		}
		// A TLD named twice is answered twice, known or not.
		order := []string{"com", "net", "org", "nl", "se", "xyz", "missing", "com", "missing"}
		gotOv := idx.Overview(day, order)
		wantOv := analysis.Overview(snap, order)
		if !reflect.DeepEqual(gotOv, wantOv) {
			t.Fatalf("trial %d: overview mismatch\ngot  %v\nwant %v", trial, gotOv, wantOv)
		}
	}
}

// TestShardedAggregationsMatchAnalysis: a population of several shards,
// tallied by four workers with a stride that does not divide it, answers
// what the serial reference does.
func TestShardedAggregationsMatchAnalysis(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	domains := colstore.RandomDomains(rand.New(rand.NewSource(5)), 3*colstore.AggShardMin+17)
	idx := colstore.BuildIndex(domains)
	day := simtime.Day(400)
	snap := colstore.RefSnapshot(domains, day)
	for _, c := range []colstore.Class{colstore.ClassAny, colstore.ClassFull} {
		if got, want := idx.CountByOperator(day, c), analysis.CountByOperator(snap, classFilter(c)); !reflect.DeepEqual(got, want) {
			t.Errorf("class %d: counts\ngot  %v\nwant %v", c, got, want)
		}
	}
	order := []string{"com", "net", "org", "nl", "se", "xyz", "com"}
	if got, want := idx.Overview(day, order), analysis.Overview(snap, order); !reflect.DeepEqual(got, want) {
		t.Errorf("overview\ngot  %v\nwant %v", got, want)
	}
}
