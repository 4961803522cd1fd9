package tldsim

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// equivWorld pairs a world with the reference population its index is
// held equal to.
type equivWorld struct {
	*World
	domains []DomainState
}

// randomWorld fabricates a world directly from random DomainStates,
// covering state combinations the cohort machinery never produces (DS
// without DNSKEY, broken+expired, Never in every slot).
func randomWorld(rng *rand.Rand, n int) equivWorld {
	tlds := []string{"com", "net", "org", "nl", "se"}
	ops := make([]string, 1+rng.Intn(10))
	for i := range ops {
		ops[i] = fmt.Sprintf("equiv-op%02d.example", i)
	}
	day := func() simtime.Day {
		if rng.Intn(4) == 0 {
			return simtime.Never
		}
		return simtime.Day(rng.Intn(900) - 100)
	}
	var domains []DomainState
	for i := 0; i < n; i++ {
		op := ops[rng.Intn(len(ops))]
		reg := ""
		if rng.Intn(2) == 0 {
			reg = "Registrar-" + op
		}
		domains = append(domains, DomainState{
			Name:       fmt.Sprintf("e%05d.%s", i, tlds[rng.Intn(len(tlds))]),
			TLD:        tlds[rng.Intn(len(tlds))],
			Operator:   op,
			Registrar:  reg,
			KeyDay:     day(),
			DSDay:      day(),
			BrokenDS:   rng.Intn(7) == 0,
			ExpiredSig: rng.Intn(7) == 0,
		})
	}
	return equivWorld{worldFromDomains(domains), domains}
}

// equivWorlds yields the property-test population: the shared calibrated
// world (the parallel build against the sequentially sampled reference
// population) plus a batch of small adversarial random ones.
func equivWorlds(t *testing.T, rng *rand.Rand) []equivWorld {
	worlds := []equivWorld{{testWorld(t), testDomains(t)}}
	for i := 0; i < 8; i++ {
		worlds = append(worlds, randomWorld(rng, rng.Intn(500)))
	}
	return worlds
}

func TestColstoreSeriesEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	for wi, w := range equivWorlds(t, rng) {
		for trial := 0; trial < 25; trial++ {
			operator := "no-such-operator.example"
			if len(w.domains) > 0 && rng.Intn(5) > 0 {
				operator = w.domains[rng.Intn(len(w.domains))].Operator
			}
			tld := ""
			switch rng.Intn(3) {
			case 1:
				tld = AllTLDs[rng.Intn(len(AllTLDs))]
			case 2:
				tld = "nosuchtld"
			}
			from := simtime.Day(rng.Intn(1100) - 300)
			to := from + simtime.Day(rng.Intn(600)-60)
			step := rng.Intn(45) - 5
			got := w.Index().Series(operator, tld, from, to, step)
			want := referenceSeries(w.domains, operator, tld, from, to, step)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("world %d trial %d: series diverges for op=%s tld=%q [%v,%v] step %d",
					wi, trial, operator, tld, from, to, step)
			}
		}
	}
}

func TestColstoreSnapshotEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(102))
	for wi, w := range equivWorlds(t, rng) {
		days := []simtime.Day{
			simtime.GTLDStart, simtime.End, simtime.Never,
			simtime.Day(rng.Intn(900) - 100),
			simtime.Day(rng.Intn(900) - 100),
		}
		for _, day := range days {
			got := w.Index().Snapshot(day)
			want := referenceSnapshot(w.domains, day)
			if len(got.Records) != len(want.Records) {
				t.Fatalf("world %d day %v: %d vs %d records", wi, day, len(got.Records), len(want.Records))
			}
			for i := range want.Records {
				if !sameRecord(&got.Records[i], &want.Records[i]) {
					t.Fatalf("world %d day %v record %d:\ncolstore  %+v\nreference %+v",
						wi, day, i, got.Records[i], want.Records[i])
				}
			}
		}
	}
}

// recordFields is dataset.Record's fields: the conversion below stops the
// build when a field is added that sameRecord does not compare.
type recordFields struct {
	Domain, TLD                                    string
	NSHosts                                        []string
	Operator                                       string
	HasDNSKEY, HasRRSIG, HasDS, ChainValid, Failed bool
	FailReason                                     string
}

var _ = recordFields(dataset.Record{})

// sameRecord is reflect.DeepEqual of two records without reflection, which
// costs most of a snapshot comparison: a nil NS-host slice differs from an
// empty one.
func sameRecord(a, b *dataset.Record) bool {
	return a.Domain == b.Domain && a.TLD == b.TLD && a.Operator == b.Operator &&
		(a.NSHosts == nil) == (b.NSHosts == nil) && slices.Equal(a.NSHosts, b.NSHosts) &&
		a.HasDNSKEY == b.HasDNSKEY && a.HasRRSIG == b.HasRRSIG && a.HasDS == b.HasDS &&
		a.ChainValid == b.ChainValid && a.Failed == b.Failed && a.FailReason == b.FailReason
}

func TestColstoreCDFAndOverviewEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(103))
	classes := []struct {
		c Class
		f analysis.Filter
	}{
		{colstore.ClassAny, analysis.All},
		{colstore.ClassDNSKEY, analysis.WithDNSKEY},
		{colstore.ClassPartial, analysis.PartiallyDeployed},
		{colstore.ClassFull, analysis.FullyDeployed},
	}
	for wi, w := range equivWorlds(t, rng) {
		day := simtime.Day(rng.Intn(800))
		snap := referenceSnapshot(w.domains, day)
		for _, tlds := range [][]string{nil, GTLDs, {"se"}} {
			tf := analysis.All
			if tlds != nil {
				set := map[string]bool{}
				for _, t := range tlds {
					set[t] = true
				}
				tf = func(r *dataset.Record) bool { return set[r.TLD] }
			}
			for _, cl := range classes {
				got := w.Index().OperatorCDF(day, cl.c, tlds...)
				want := analysis.OperatorCDF(snap, analysis.And(tf, cl.f))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("world %d day %v tlds %v: CDF diverges from analysis oracle", wi, day, tlds)
				}
			}
		}
		gotOv := w.Index().Overview(day, AllTLDs)
		wantOv := analysis.Overview(snap, AllTLDs)
		if !reflect.DeepEqual(gotOv, wantOv) {
			t.Fatalf("world %d day %v: overview diverges\ngot  %v\nwant %v", wi, day, gotOv, wantOv)
		}
	}
}

// Class aliases colstore.Class for the table above.
type Class = colstore.Class

func TestColstoreRegistrarTallyEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(104))
	for wi, w := range equivWorlds(t, rng) {
		for _, tlds := range [][]string{nil, GTLDs, {"nl", "se"}} {
			legacyAll := map[string]int{}
			legacyKeyed := map[string]int{}
			want := map[string]bool{}
			for _, t := range tlds {
				want[t] = true
			}
			for i := range w.domains {
				d := &w.domains[i]
				if d.Registrar == "" || (len(want) > 0 && !want[d.TLD]) {
					continue
				}
				legacyAll[d.Registrar]++
				if d.KeyDay <= simtime.End {
					legacyKeyed[d.Registrar]++
				}
			}
			if got := w.Index().DomainsByRegistrar(tlds...); !reflect.DeepEqual(got, legacyAll) {
				t.Fatalf("world %d tlds %v: DomainsByRegistrar diverges", wi, tlds)
			}
			if got := w.Index().DNSKEYByRegistrar(simtime.End, tlds...); !reflect.DeepEqual(got, legacyKeyed) {
				t.Fatalf("world %d tlds %v: DNSKEYByRegistrar diverges", wi, tlds)
			}
		}
	}
}

// TestWorldSnapshotAllocs is the alloc-regression guard on the interned
// snapshot path: a record-at-a-time projection through RecordAt allocates
// an NS-host slice (plus the "ns1."+op concatenation) per record per day;
// the columnar path must stay O(1) allocations per snapshot.
func TestWorldSnapshotAllocs(t *testing.T) {
	w := testWorld(t)
	allocs := testing.AllocsPerRun(5, func() {
		if snap := w.Index().Snapshot(simtime.End); len(snap.Records) == 0 {
			t.Fatal("empty snapshot")
		}
	})
	if allocs > 4 {
		t.Errorf("Index().Snapshot allocates %.1f objects per call, want <= 4 (was O(records) before colstore)", allocs)
	}
	// The projection primitive must not allocate when handed a shared
	// NS-host slice: zero allocations per projection.
	d := w.DomainAt(0)
	hosts := []string{nsFor(d.Operator)}
	recAllocs := testing.AllocsPerRun(100, func() {
		r := d.recordAt(simtime.End, hosts)
		if r.Domain == "" {
			t.Fatal("bad record")
		}
	})
	if recAllocs > 0 {
		t.Errorf("recordAt allocates %.1f objects per call, want 0", recAllocs)
	}
}
