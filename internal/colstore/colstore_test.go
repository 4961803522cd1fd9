package colstore

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// randomDomains draws an adversarial synthetic population: every combo of
// Never/real key and DS days, broken/expired flags, shared and unique
// operators, all five TLDs plus an oddball.
func randomDomains(rng *rand.Rand, n int) []Domain {
	tlds := []string{"com", "net", "org", "nl", "se", "xyz"}
	ops := make([]string, 1+rng.Intn(12))
	for i := range ops {
		ops[i] = fmt.Sprintf("op%02d.example", i)
	}
	day := func() simtime.Day {
		if rng.Intn(4) == 0 {
			return simtime.Never
		}
		return simtime.Day(rng.Intn(900) - 100)
	}
	out := make([]Domain, n)
	for i := range out {
		op := ops[rng.Intn(len(ops))]
		reg := ""
		if rng.Intn(2) == 0 {
			reg = "Reg-" + op
		}
		out[i] = Domain{
			Name:       fmt.Sprintf("d%05d.%s", i, op),
			TLD:        tlds[rng.Intn(len(tlds))],
			Operator:   op,
			Registrar:  reg,
			NSHost:     "ns1." + op,
			KeyDay:     day(),
			DSDay:      day(),
			BrokenDS:   rng.Intn(8) == 0,
			ExpiredSig: rng.Intn(8) == 0,
		}
	}
	return out
}

func buildIndex(domains []Domain) *Index {
	b := NewBuilder(len(domains))
	for _, d := range domains {
		b.Add(d)
	}
	return b.Build()
}

// refRecord is the oracle projection: the same rules as
// tldsim.DomainState.RecordAt.
func refRecord(d *Domain, day simtime.Day) dataset.Record {
	hasKey := d.KeyDay <= day
	hasDS := d.DSDay <= day
	return dataset.Record{
		Domain:     d.Name,
		TLD:        d.TLD,
		NSHosts:    []string{d.NSHost},
		Operator:   d.Operator,
		HasDNSKEY:  hasKey,
		HasRRSIG:   hasKey,
		HasDS:      hasDS,
		ChainValid: hasKey && hasDS && !d.BrokenDS && !d.ExpiredSig,
	}
}

func refSnapshot(domains []Domain, day simtime.Day) *dataset.Snapshot {
	snap := &dataset.Snapshot{Day: day, Records: make([]dataset.Record, 0, len(domains))}
	for i := range domains {
		snap.Records = append(snap.Records, refRecord(&domains[i], day))
	}
	return snap
}

// refSeries is the oracle series: the original full-scan SeriesFor logic.
func refSeries(domains []Domain, operator, tld string, from, to simtime.Day, stepDays int) []SeriesPoint {
	if stepDays <= 0 {
		stepDays = 1
	}
	var out []SeriesPoint
	for day := from; day <= to; day += simtime.Day(stepDays) {
		p := SeriesPoint{Day: day}
		for i := range domains {
			d := &domains[i]
			if d.Operator != operator || (tld != "" && d.TLD != tld) {
				continue
			}
			p.Total++
			if d.KeyDay != simtime.Never && d.KeyDay <= day {
				p.WithDNSKEY++
			}
			if d.DSDay != simtime.Never && d.DSDay <= day {
				p.WithDS++
				if !d.BrokenDS && !d.ExpiredSig {
					full := d.DSDay
					if d.KeyDay > full {
						full = d.KeyDay
					}
					if full <= day {
						p.Full++
					}
				}
			}
		}
		out = append(out, p)
	}
	return out
}

func TestSnapshotMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 20; trial++ {
		domains := randomDomains(rng, rng.Intn(400))
		idx := buildIndex(domains)
		for _, day := range []simtime.Day{-200, 0, 17, 400, 850, simtime.Never} {
			got := idx.Snapshot(day)
			want := refSnapshot(domains, day)
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d day %v: snapshot mismatch", trial, day)
			}
		}
	}
}

func TestSeriesMatchesOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 40; trial++ {
		domains := randomDomains(rng, rng.Intn(300))
		idx := buildIndex(domains)
		operator := "op00.example"
		if len(domains) > 0 && rng.Intn(4) > 0 {
			operator = domains[rng.Intn(len(domains))].Operator
		}
		if rng.Intn(8) == 0 {
			operator = "no-such-op.example"
		}
		tld := ""
		switch rng.Intn(3) {
		case 1:
			tld = []string{"com", "net", "org", "nl", "se", "xyz"}[rng.Intn(6)]
		case 2:
			tld = "nosuchtld"
		}
		from := simtime.Day(rng.Intn(1000) - 300)
		to := from + simtime.Day(rng.Intn(500)-50) // sometimes from > to
		step := rng.Intn(40) - 5                   // sometimes <= 0
		got := idx.Series(operator, tld, from, to, step)
		want := refSeries(domains, operator, tld, from, to, step)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: series mismatch for op=%s tld=%q [%v,%v] step %d\ngot  %v\nwant %v",
				trial, operator, tld, from, to, step, got, want)
		}
	}
}

func TestRegistrarCounts(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	domains := randomDomains(rng, 500)
	idx := buildIndex(domains)
	day := simtime.Day(300)
	for _, tlds := range [][]string{nil, {"com"}, {"nl", "se"}} {
		want := map[string]int{}
		wantKeyed := map[string]int{}
		set := map[string]bool{}
		for _, t := range tlds {
			set[t] = true
		}
		for i := range domains {
			d := &domains[i]
			if d.Registrar == "" || (len(set) > 0 && !set[d.TLD]) {
				continue
			}
			want[d.Registrar]++
			if d.KeyDay <= day {
				wantKeyed[d.Registrar]++
			}
		}
		if got := idx.DomainsByRegistrar(tlds...); !reflect.DeepEqual(got, want) {
			t.Fatalf("DomainsByRegistrar(%v) = %v, want %v", tlds, got, want)
		}
		if got := idx.DNSKEYByRegistrar(day, tlds...); !reflect.DeepEqual(got, wantKeyed) {
			t.Fatalf("DNSKEYByRegistrar(%v) = %v, want %v", tlds, got, wantKeyed)
		}
	}
}

func TestEmptyIndex(t *testing.T) {
	idx := buildIndex(nil)
	if idx.Len() != 0 || idx.Operators() != 0 {
		t.Fatal("empty index has population")
	}
	if snap := idx.Snapshot(10); len(snap.Records) != 0 {
		t.Fatal("empty snapshot has records")
	}
	pts := idx.Series("x", "", 0, 2, 1)
	if len(pts) != 3 || pts[0].Total != 0 {
		t.Fatalf("series over empty index: %v", pts)
	}
	if cdf := idx.OperatorCDF(10, ClassAny); cdf != nil {
		t.Fatalf("CDF over empty index: %v", cdf)
	}
}

func TestSharedNSHostSlices(t *testing.T) {
	domains := []Domain{
		{Name: "a.com", TLD: "com", Operator: "op.example", NSHost: "ns1.op.example", KeyDay: simtime.Never, DSDay: simtime.Never},
		{Name: "b.com", TLD: "com", Operator: "op.example", NSHost: "ns1.op.example", KeyDay: simtime.Never, DSDay: simtime.Never},
	}
	idx := buildIndex(domains)
	snap := idx.Snapshot(100)
	if &snap.Records[0].NSHosts[0] != &snap.Records[1].NSHosts[0] {
		t.Error("records of one operator should share one NS-host slice")
	}
	snap2 := idx.Snapshot(200)
	if &snap.Records[0].NSHosts[0] != &snap2.Records[0].NSHosts[0] {
		t.Error("NS-host slice should be shared across snapshots")
	}
}

// TestSnapshotAllocs guards the interned snapshot path against alloc
// regressions: materializing N records must stay O(1) allocations (the
// snapshot struct and one records slice), not O(N).
func TestSnapshotAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	domains := randomDomains(rng, 5000)
	idx := buildIndex(domains)
	allocs := testing.AllocsPerRun(10, func() {
		if snap := idx.Snapshot(400); len(snap.Records) != 5000 {
			t.Fatal("bad snapshot")
		}
	})
	if allocs > 4 {
		t.Errorf("Snapshot allocates %.1f objects per call, want <= 4", allocs)
	}
}

// TestSeriesAllocs guards the incremental series sweep: one output slice
// plus bounded cursor state, independent of population size.
func TestSeriesAllocs(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	domains := randomDomains(rng, 5000)
	idx := buildIndex(domains)
	op := domains[0].Operator
	allocs := testing.AllocsPerRun(10, func() {
		if pts := idx.Series(op, "", 0, 700, 1); len(pts) != 701 {
			t.Fatal("bad series")
		}
	})
	if allocs > 8 {
		t.Errorf("Series allocates %.1f objects per call, want <= 8", allocs)
	}
}
