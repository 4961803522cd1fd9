package colstore

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"securepki.org/registrarsec/internal/simtime"
)

// benchIndex builds one deterministic 200k-domain population shared by the
// micro-benchmarks: 2k operators, five TLDs, paper-shaped adoption days.
var benchIdx *Index

func getBenchIndex(b *testing.B) *Index {
	b.Helper()
	if benchIdx == nil {
		rng := rand.New(rand.NewSource(42))
		benchIdx = buildIndex(randomDomains(rng, 200_000))
	}
	return benchIdx
}

func BenchmarkBuild(b *testing.B) {
	rng := rand.New(rand.NewSource(7))
	domains := randomDomains(rng, 50_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if idx := buildIndex(domains); idx.Len() != len(domains) {
			b.Fatal("bad build")
		}
	}
}

func BenchmarkSnapshot(b *testing.B) {
	idx := getBenchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if snap := idx.Snapshot(simtime.End); len(snap.Records) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func BenchmarkSeries(b *testing.B) {
	idx := getBenchIndex(b)
	op := idx.ops[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pts := idx.Series(op, "", simtime.GTLDStart, simtime.End, 1)
		if len(pts) == 0 {
			b.Fatal("empty series")
		}
	}
}

func BenchmarkOperatorCDF(b *testing.B) {
	idx := getBenchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cdf := idx.OperatorCDF(simtime.End, ClassAny, "com", "net", "org"); len(cdf) == 0 {
			b.Fatal("empty CDF")
		}
	}
}

func BenchmarkOverview(b *testing.B) {
	idx := getBenchIndex(b)
	tlds := []string{"com", "net", "org", "nl", "se"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if ov := idx.Overview(simtime.End, tlds); len(ov) != len(tlds) {
			b.Fatal("bad overview")
		}
	}
}

func BenchmarkCountByOperator(b *testing.B) {
	idx := getBenchIndex(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if counts := idx.CountByOperator(simtime.End, ClassDNSKEY); len(counts) == 0 {
			b.Fatal("no counts")
		}
	}
}

// BenchmarkIngest is the observatory's write path over a 100k-domain
// population: three observed days folded in (every record a row-table
// lookup by name), a Freeze, and a resume from the frozen index.
func BenchmarkIngest(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	snaps := observedDays(randomDomains(rng, 100_000), 100, 700, 300)
	b.Run("append", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g := NewIngester()
			for _, snap := range snaps {
				if _, err := g.AppendDay(snap); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
	g := NewIngester()
	for _, snap := range snaps {
		if _, err := g.AppendDay(snap); err != nil {
			b.Fatal(err)
		}
	}
	b.Run("freeze", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if g.Freeze().Len() != g.Len() {
				b.Fatal("bad freeze")
			}
		}
	})
	frozen := g.Freeze()
	b.Run("resume", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := NewIngesterFromIndex(frozen); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// paperRuns lays out a population the size of paper_clean's world (divisor
// 400: 371,667 rows in 10,134 runs, a cohort each), run i holding rows in
// proportion to 1/(i+1), as the cohort plan's head and power-law tail do.
func paperRuns() []int {
	const rows, runs = 371_667, 10_134
	sum := 0.0
	for i := range runs {
		sum += 1 / float64(i+1)
	}
	sizes, placed := make([]int, runs), 0
	for i := range sizes {
		sizes[i] = max(1, int(rows/float64(i+1)/sum))
		placed += sizes[i]
	}
	sizes[0] += rows - placed
	return sizes
}

// reservePaperPlan reserves paperRuns' runs: 14-byte names, an operator
// per run, five TLDs, registrars for the first hundred runs.
func reservePaperPlan(sizes []int) *Plan {
	return paperRunNames(len(sizes)).reserve(sizes)
}

// runNames are the operator, NS host and registrar of each run.
type runNames struct{ ops, hosts, regs []string }

func paperRunNames(runs int) runNames {
	n := runNames{make([]string, runs), make([]string, runs), make([]string, runs)}
	for i := range runs {
		n.ops[i] = "op" + strconv.Itoa(i) + ".example"
		n.hosts[i] = "ns1." + n.ops[i]
		if i < 100 {
			n.regs[i] = "Registrar" + strconv.Itoa(i)
		}
	}
	return n
}

func (n runNames) reserve(sizes []int) *Plan {
	tlds := []string{"com", "net", "org", "nl", "se"}
	p := NewPlan(len(sizes))
	for i, rows := range sizes {
		p.Reserve(rows, 14*uint64(rows), n.ops[i], n.hosts[i], tlds[i%len(tlds)], n.regs[i])
	}
	return p
}

// paperIndex fills a reservePaperPlan: one row in 50 signed, one in 100
// with a DS, names "d<row, 7 digits>-x.com".
func paperIndex(tb testing.TB, sizes []int) (*Plan, *Index) {
	p := reservePaperPlan(sizes)
	row := 0
	var name []byte
	for run, n := range sizes {
		w := p.Writer(run)
		for range n {
			key, ds := simtime.Never, simtime.Never
			if row%50 == 0 {
				key = simtime.Day(row % 700)
			}
			if row%100 == 0 {
				ds = key + 3
			}
			name = fmt.Appendf(name[:0], "d%07d-x.com", row)
			w.Add(name, simtime.Day(-row%900), key, ds, false, false)
			row++
		}
		w.Close()
	}
	x, err := p.Build()
	if err != nil {
		tb.Fatal(err)
	}
	return p, x
}

// BenchmarkPlanBuild times the phases of a planned build that draw nothing,
// at paper_clean's size: reserve lays the runs out and interns their
// names, allocate makes the ten columns, finish derives the event groups.
func BenchmarkPlanBuild(b *testing.B) {
	sizes := paperRuns()
	names := paperRunNames(len(sizes))
	b.Run("reserve", func(b *testing.B) {
		b.ReportAllocs()
		for range b.N {
			names.reserve(sizes)
		}
	})
	b.Run("allocate", func(b *testing.B) {
		p := names.reserve(sizes)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			p.allocate()
		}
	})
	b.Run("finish", func(b *testing.B) {
		_, x := paperIndex(b, sizes)
		b.ReportAllocs()
		b.ResetTimer()
		for range b.N {
			x.finish()
		}
	})
}

// BenchmarkSaveFile is the durable save of a paper_clean-sized index in the
// mapped form: the sections written, summed and checked, then the fsync.
func BenchmarkSaveFile(b *testing.B) {
	_, x := paperIndex(b, paperRuns())
	path := filepath.Join(b.TempDir(), "world.rscw")
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if err := x.SaveFile(path, map[string]string{"k": "v"}); err != nil {
			b.Fatal(err)
		}
	}
	if info, err := os.Stat(path); err == nil {
		b.SetBytes(info.Size())
	}
}
