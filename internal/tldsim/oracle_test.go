package tldsim

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// The reference implementations the columnar world is held equal to: a
// population sampled one domain at a time into []DomainState, a snapshot
// projected record by record, and a series computed by a full scan. They
// share nothing with the index but the per-cohort RNG streams and the
// drawDomain/appendDomainName primitives, and live only in tests.

// referenceDomains samples cfg's population sequentially: every cohort's
// domains from a fresh newStream(cohortSeed(seed, ci)) — never the filler's
// re-seeded one, so equality with Build shows re-seeding ≡ fresh — in
// cohort order, named by their position. Build must realize the same world
// domain for domain.
func referenceDomains(t testing.TB, cfg WorldConfig) []DomainState {
	t.Helper()
	cfg.fill()
	cohorts, err := planCohorts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for i := range cohorts {
		total += cohorts[i].Domains
	}
	domains := make([]DomainState, 0, total)
	var suffix, name []byte
	for ci := range cohorts {
		c := &cohorts[ci]
		rng := rand.New(newStream(cohortSeed(cfg.Seed, ci)))
		suffix = appendCohortSuffix(suffix[:0], c)
		for i := 0; i < c.Domains; i++ {
			dr := drawDomain(rng, c, &cfg)
			name = appendDomainName(name[:0], len(domains), suffix)
			domains = append(domains, DomainState{
				Name:       string(name),
				TLD:        c.TLD,
				Operator:   c.Operator,
				Registrar:  c.Registrar,
				Created:    dr.created,
				KeyDay:     dr.keyDay,
				DSDay:      dr.dsDay,
				BrokenDS:   dr.broken,
				ExpiredSig: dr.expired,
			})
		}
	}
	return domains
}

// referenceExponent is the tail plan's exponent by sixty bisections of
// [0, 3] over sums of math.Pow — slow, and with nothing to converge.
func referenceExponent(k int, ratio float64) float64 {
	lo, hi := 0.0, 3.0
	for iter := 0; iter < 60; iter++ {
		mid, sum := (lo+hi)/2, 0.0
		for i := 1; i <= k; i++ {
			sum += math.Pow(float64(i), -mid)
		}
		if sum > ratio {
			lo = mid
		} else {
			hi = mid
		}
	}
	return (lo + hi) / 2
}

// TestTailPlanMatchesReferenceExponent: the Newton solve over the ln table
// lands on the bisection's exponent — to 1e-13, the rounding of a sum of k
// terms being all that separates them — for the default tail plans, for
// degenerate ones (one operator; fewer operators than the head ratio), and
// the sizes it yields are a largest-first split of exactly the total.
func TestTailPlanMatchesReferenceExponent(t *testing.T) {
	for _, tc := range []struct{ k, total int }{
		{1, 1}, {1, 500}, {2, 2}, {5, 19}, {19, 19}, {20, 400}, {21, 400},
		{600, 3500}, {1000, 14000}, {1300, 37000}, {6000, 290000}, {6000, 29000000},
	} {
		lnI := make([]float64, tc.k)
		for i := range lnI {
			lnI[i] = math.Log(float64(i + 1))
		}
		ratio := math.Min(20, float64(tc.total))
		got, want := solveExponent(lnI, ratio), referenceExponent(tc.k, ratio)
		if math.Abs(got-want) > 1e-13 {
			t.Errorf("k=%d ratio=%v: exponent %.17g, reference %.17g", tc.k, ratio, got, want)
		}
		sizes := powerLawSizes(tc.k, tc.total)
		sum := 0
		for i, size := range sizes {
			sum += size
			if size < 0 || (i > 0 && size > sizes[i-1]+1) {
				t.Errorf("k=%d total=%d: operator %d has %d domains after one of %d", tc.k, tc.total, i, size, sizes[i-1])
				break
			}
		}
		if len(sizes) != tc.k || sum != tc.total {
			t.Errorf("k=%d total=%d: %d operators holding %d domains", tc.k, tc.total, len(sizes), sum)
		}
	}
}

// worldFromDomains indexes an explicit population through a colstore Plan
// of one run per domain — how tests fabricate worlds the cohort machinery
// never produces.
func worldFromDomains(domains []DomainState) *World {
	p := colstore.NewPlan(len(domains))
	for i := range domains {
		d := &domains[i]
		p.Reserve(1, uint64(len(d.Name)), d.Operator, nsFor(d.Operator), d.TLD, d.Registrar)
	}
	for i := range domains {
		d := &domains[i]
		w := p.Writer(i)
		w.Add([]byte(d.Name), d.Created, d.KeyDay, d.DSDay, d.BrokenDS, d.ExpiredSig)
		w.Close()
	}
	idx, err := p.Build()
	if err != nil {
		panic(err)
	}
	return &World{idx: idx}
}

// referenceSnapshot is the record-at-a-time projection of a population
// onto one day, one NS-host slice per operator.
func referenceSnapshot(domains []DomainState, day simtime.Day) *dataset.Snapshot {
	snap := &dataset.Snapshot{Day: day, Records: make([]dataset.Record, 0, len(domains))}
	nsHosts := map[string][]string{}
	for i := range domains {
		d := &domains[i]
		hosts, ok := nsHosts[d.Operator]
		if !ok {
			hosts = []string{nsFor(d.Operator)}
			nsHosts[d.Operator] = hosts
		}
		snap.Records = append(snap.Records, d.recordAt(day, hosts))
	}
	return snap
}

// referenceSeries is the full-scan series computation: gather the
// operator's event days, sort them, and count the events at or before each
// sampled day.
func referenceSeries(domains []DomainState, operator, tld string, from, to simtime.Day, stepDays int) []colstore.SeriesPoint {
	if stepDays <= 0 {
		stepDays = 1
	}
	var keyDays, dsDays, fullDays []simtime.Day
	total := 0
	for i := range domains {
		d := &domains[i]
		if d.Operator != operator || (tld != "" && d.TLD != tld) {
			continue
		}
		total++
		if d.KeyDay != simtime.Never {
			keyDays = append(keyDays, d.KeyDay)
		}
		if d.DSDay != simtime.Never {
			dsDays = append(dsDays, d.DSDay)
			if !d.BrokenDS && !d.ExpiredSig {
				// Full deployment begins when both halves are in place.
				full := d.DSDay
				if d.KeyDay > full {
					full = d.KeyDay
				}
				fullDays = append(fullDays, full)
			}
		}
	}
	for _, s := range [][]simtime.Day{keyDays, dsDays, fullDays} {
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	}
	countLE := func(s []simtime.Day, day simtime.Day) int {
		return sort.Search(len(s), func(i int) bool { return s[i] > day })
	}
	var out []colstore.SeriesPoint
	for day := from; day <= to; day += simtime.Day(stepDays) {
		out = append(out, colstore.SeriesPoint{
			Day:        day,
			Total:      total,
			WithDNSKEY: countLE(keyDays, day),
			WithDS:     countLE(dsDays, day),
			Full:       countLE(fullDays, day),
		})
	}
	return out
}
