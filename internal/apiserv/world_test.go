package apiserv

import (
	"bytes"
	"compress/gzip"
	"context"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// worldHeader is the fixed header saveWorld writes: the gzip magic,
// deflate, no flags, no modification time, the format byte 4 in XFL and OS
// 255 (unknown).
var worldHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 0xff}

// sweptArchive is the archive of a seeded four-day sweep of 300 targets of
// a divisor-4000 world, and the number of records it holds.
func sweptArchive(t *testing.T) ([]byte, int) {
	t.Helper()
	spec := &dsweep.WorldSpec{ScaleDiv: 4000, Sample: 300, Seed: 1}
	days := []simtime.Day{simtime.Date(2016, 6, 1), simtime.Date(2016, 8, 1), simtime.Date(2016, 10, 1), simtime.End}
	plan := spec.PlanFor(days, 4, scan.DefaultChunk)
	world, err := tldsim.Build(plan.Spec.WorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	var archive bytes.Buffer
	records := 0
	if err := plan.Sweep(world, nil, dataset.SpillOptions{}, nil).RunStream(context.Background(), plan.Days,
		func(_ simtime.Day, sw *dataset.SpillWriter) error {
			records += sw.Len()
			return sw.WriteSectionTo(&archive)
		}); err != nil {
		t.Fatal(err)
	}
	return archive.Bytes(), records
}

// zcat is what zcat prints of a world file: the text of its one member.
func zcat(t testing.TB, world []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(world))
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return raw
}

// TestObservedWorldBytes pins what the observatory's world file costs per
// swept record of a seeded archive ingested through the tailer, in two
// figures: the colstore world that zcat prints — the cost of colstore's
// layout — and the gzip member on disk, which adds what compress/flate
// makes of it. A change of the layout moves both; a Go toolchain whose
// compress/flate compresses differently may move only the second.
func TestObservedWorldBytes(t *testing.T) {
	archive, records := sweptArchive(t)
	s := newTestServer(t, t.TempDir())
	if err := os.WriteFile(s.cfg.ArchivePath, archive, 0o644); err != nil {
		t.Fatal(err)
	}
	runToEnd(t, s)
	world := worldFile(t, s)
	if !bytes.HasPrefix(world, worldHeader) {
		t.Fatalf("world file begins % x, want % x", world[:min(len(world), len(worldHeader))], worldHeader)
	}
	type cost struct{ records, raw, disk int }
	// The raw world was written to disk as it is before worlds were
	// deflated; deflated at gzip.BestSpeed it took 3,989 B (3.32 disk
	// B/record).
	want := cost{1200, 18752, 3757} // 15.63 raw, 3.13 disk B/record
	got := cost{records, len(zcat(t, world)), len(world)}
	if got != want {
		t.Errorf("%+v (%.2f raw, %.2f disk B/record), want %+v", got,
			float64(got.raw)/float64(got.records), float64(got.disk)/float64(got.records), want)
	}
}

// FuzzWorldFile feeds loadWorld arbitrary file bytes: it never panics, and
// every world it accepts, written back through saveWorld and loaded again,
// saves to the same colstore bytes with the same META. Seeded from a
// committed world, the raw colstore world it wraps, and both cut short or
// followed by more bytes.
func FuzzWorldFile(f *testing.F) {
	s := newTestServer(f, f.TempDir())
	if err := os.WriteFile(s.cfg.ArchivePath, archiveBytes(f, []simtime.Day{200, 230}, 12), 0o644); err != nil {
		f.Fatal(err)
	}
	runToEnd(f, s)
	member := worldFile(f, s)
	raw := zcat(f, member)
	for _, seed := range [][]byte{member, raw} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
		f.Add(append(bytes.Clone(seed), 0))
		f.Add(append(bytes.Clone(seed), seed...))
	}
	f.Add(member[:len(worldHeader)])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "world.colstore")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		idx, meta, err := loadWorld(path)
		if err != nil {
			return
		}
		defer idx.Close()
		var want bytes.Buffer
		if err := idx.Save(&want, meta); err != nil {
			t.Fatalf("a loaded world does not save: %v", err)
		}
		again := filepath.Join(dir, "again.colstore")
		if err := saveWorld(again, idx, meta); err != nil {
			t.Fatalf("a loaded world does not save as a member: %v", err)
		}
		back, backMeta, err := loadWorld(again)
		if err != nil {
			t.Fatalf("saveWorld wrote a world loadWorld refuses: %v", err)
		}
		defer back.Close()
		var got bytes.Buffer
		if err := back.Save(&got, backMeta); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) || !reflect.DeepEqual(backMeta, meta) {
			t.Fatalf("a world loaded, saved and loaded again saves %d bytes, META %v; want %d bytes, META %v", got.Len(), backMeta, want.Len(), meta)
		}
	})
}
