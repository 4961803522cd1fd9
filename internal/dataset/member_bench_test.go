package dataset_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// paperCleanTexts are the texts of the members a sweep the size of the
// benchmark's paper_clean workload writes — 16,000 targets of a
// divisor-400 world, seed 1, on six month-ends from the first of the study
// window to its last — and of the world the observatory folds them into:
// the six section texts, the colstore world as Save writes it (the line
// form) and the same world as SaveFile writes it (the mapped form, which
// the world member held before the line form).
var paperCleanTexts = sync.OnceValues(func() ([][]byte, [2][]byte) {
	spec := &dsweep.WorldSpec{ScaleDiv: 400, Sample: 16000, Seed: 1}
	days := []simtime.Day{
		simtime.Date(2015, 4, 30), simtime.Date(2015, 8, 31), simtime.Date(2015, 12, 31),
		simtime.Date(2016, 4, 30), simtime.Date(2016, 8, 31), simtime.End,
	}
	plan := spec.PlanFor(days, 4, scan.DefaultChunk)
	world, err := tldsim.Build(plan.Spec.WorldConfig())
	if err != nil {
		panic(err)
	}
	var sections [][]byte
	ing := colstore.NewIngester()
	if err := plan.Sweep(world, nil, dataset.SpillOptions{}, nil).RunStream(context.Background(), plan.Days,
		func(_ simtime.Day, sw *dataset.SpillWriter) error {
			var member bytes.Buffer
			if err := sw.WriteSectionTo(&member); err != nil {
				return err
			}
			store, err := dataset.ReadArchiveStrict(bytes.NewReader(member.Bytes()))
			if err != nil {
				return err
			}
			if _, err := ing.AppendDay(store.Get(sw.Day())); err != nil {
				return err
			}
			zr, err := gzip.NewReader(&member)
			if err != nil {
				return err
			}
			raw, err := io.ReadAll(zr)
			sections = append(sections, raw)
			return err
		}); err != nil {
		panic(err)
	}
	idx := ing.Freeze()
	var w bytes.Buffer
	if err := idx.Save(&w, nil); err != nil {
		panic(err)
	}
	dir, err := os.MkdirTemp("", "member-bench-")
	if err != nil {
		panic(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "world.rscw")
	if err := idx.SaveFile(path, nil); err != nil {
		panic(err)
	}
	mapped, err := os.ReadFile(path)
	if err != nil {
		panic(err)
	}
	return sections, [2][]byte{w.Bytes(), mapped}
})

// BenchmarkMemberWriter deflates the paper_clean-sized sweep's members —
// its six sections, and the world folded from them in the line form
// ("world") and in the mapped form ("world-mapped") — through the member
// writer at GOMAXPROCS workers ("member"), and, for comparison, through the
// single-stream gzip.BestSpeed writer each member went through before it
// ("bestspeed"). disk-B is the bytes written.
func BenchmarkMemberWriter(b *testing.B) {
	sections, world := paperCleanTexts()
	for _, load := range []struct {
		name  string
		texts [][]byte
	}{{"sections", sections}, {"world", [][]byte{world[0]}}, {"world-mapped", [][]byte{world[1]}}} {
		size := 0
		for _, text := range load.texts {
			size += len(text)
		}
		b.Run(load.name+"/member", func(b *testing.B) {
			var out countWriter
			b.SetBytes(int64(size))
			for range b.N {
				out = 0
				for _, text := range load.texts {
					mw := dataset.NewMemberWriter(&out)
					mw.Write(text) // countWriter does not fail
					if err := mw.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(out), "disk-B")
		})
		b.Run(load.name+"/bestspeed", func(b *testing.B) {
			var out countWriter
			zw, _ := gzip.NewWriterLevel(nil, gzip.BestSpeed)
			b.SetBytes(int64(size))
			for range b.N {
				out = 0
				for _, text := range load.texts {
					zw.Reset(&out)
					zw.Write(text) // countWriter does not fail
					if err := zw.Close(); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(out), "disk-B")
		})
	}
}

// countWriter counts the bytes written to it.
type countWriter int

func (c *countWriter) Write(p []byte) (int, error) {
	*c += countWriter(len(p))
	return len(p), nil
}
