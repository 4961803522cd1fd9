package colstore

import (
	"math/rand"
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
