package apiserv

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"path/filepath"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/logtest"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

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

// TestObservedWorldBytes pins what the observatory's world file costs per
// swept record of a seeded archive ingested through the tailer, in two
// figures: the colstore world that zcat prints — the cost of colstore's
// layout — and the gzip member on disk, which adds what compress/flate
// makes of it. A change of the layout moves both; a Go toolchain whose
// compress/flate compresses differently may move only the second.
func TestObservedWorldBytes(t *testing.T) {
	archive, records := sweptArchive(t)
	s := newTestServer(t, t.TempDir())
	archivetest.Write(t, s.cfg.ArchivePath, archive)
	runToEnd(t, s)
	world := worldFile(t, s)
	if !bytes.HasPrefix(world, archivetest.Header) {
		t.Fatalf("world file begins % x, want % x", world[:min(len(world), len(archivetest.Header))], archivetest.Header)
	}
	type cost struct{ records, raw, disk int }
	// The raw world was written to disk as it is before worlds were
	// deflated; deflated at gzip.BestSpeed it took 3,989 B (3.32 disk
	// B/record). With NAMES and NAMESOFF in place of NAMELINE it was
	// 18,752 raw and 3,757 disk B (15.63 and 3.13 B/record); with NAMELINE's
	// names plain, not front-coded, 16,616 raw and 3,002 disk B (13.85 and
	// 2.50 B/record).
	want := cost{1200, 15400, 2995} // 12.83 raw, 2.50 disk B/record
	got := cost{records, len(archivetest.Zcat(t, world)), len(world)}
	if got != want {
		t.Errorf("%+v (%.2f raw, %.2f disk B/record), want %+v", got,
			float64(got.raw)/float64(got.records), float64(got.disk)/float64(got.records), want)
	}
}

// mappedMember is the world member as a build before the line form wrote
// it: the same index and META, in the mapped form SaveFile writes (NAMES and
// NAMESOFF), deflated into one member by the same writer.
func mappedMember(t testing.TB, dir string, member []byte) []byte {
	t.Helper()
	path := filepath.Join(dir, "member.colstore")
	archivetest.Write(t, path, member)
	idx, meta, err := loadWorld(path)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	mapped := filepath.Join(dir, "mapped.rscw")
	if err := idx.SaveFile(mapped, meta); err != nil {
		t.Fatal(err)
	}
	raw := archivetest.Read(t, mapped)
	var out bytes.Buffer
	zw := dataset.NewMemberWriter(&out)
	zw.Write(raw) // a bytes.Buffer does not fail
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// TestMappedFormWorldResumes: a world file whose member holds the mapped
// form, as the observatory committed before the line form, resumes from
// its cursor without a re-ingest, serves what the daemon that wrote it
// served, catches up to a clean run's Table 1 and world bytes, and is
// rewritten in the line form by its next commit.
func TestMappedFormWorldResumes(t *testing.T) {
	days := []simtime.Day{200, 230}
	full := archiveBytes(t, days, 12)
	clean := newTestServer(t, t.TempDir())
	archivetest.Write(t, clean.cfg.ArchivePath, full)
	runToEnd(t, clean)
	wantWorld := worldFile(t, clean)
	wantTable := get(clean.Handler(), "/v1/table1").Body.String()

	dir := t.TempDir()
	first := newTestServer(t, dir)
	archivetest.Write(t, first.cfg.ArchivePath, archiveBytes(t, days[:1], 12))
	runToEnd(t, first)
	firstTable := get(first.Handler(), "/v1/table1").Body.String()
	mapped := mappedMember(t, t.TempDir(), worldFile(t, first))
	if raw := archivetest.Zcat(t, mapped); !bytes.Contains(raw, []byte("NAMESOFF")) || bytes.Contains(raw, []byte("NAMELINE")) {
		t.Fatal("the mapped member does not hold NAMES and NAMESOFF alone")
	}
	archivetest.Write(t, first.cfg.WorldPath, mapped)
	archivetest.Write(t, first.cfg.ArchivePath, full)

	logged := logtest.Capture(t)
	s := newTestServer(t, dir)
	if err := s.resumeOnce(); err != nil {
		t.Fatal(err)
	}
	if len(logged.Records(refused)) != 0 || s.cur != first.cur {
		t.Fatalf("resumed at %+v, want the writer's cursor %+v without a re-ingest", s.cur, first.cur)
	}
	if got := get(s.Handler(), "/v1/table1").Body.String(); got != firstTable {
		t.Errorf("the resumed daemon serves Table 1\n%s\nwant the writer's\n%s", got, firstTable)
	}
	if err := s.pollOnce(); err != nil {
		t.Fatal(err)
	}
	if got := get(s.Handler(), "/v1/table1").Body.String(); got != wantTable {
		t.Errorf("after catching up the daemon serves Table 1\n%s\nwant a clean run's\n%s", got, wantTable)
	}
	world := worldFile(t, s)
	if raw := archivetest.Zcat(t, world); !bytes.Contains(raw, []byte("NAMELINE")) || bytes.Contains(raw, []byte("NAMESOFF")) {
		t.Error("the next commit did not write the line form")
	}
	if !bytes.Equal(world, wantWorld) {
		t.Errorf("the caught-up world file is %d bytes that differ from a clean run's %d", len(world), len(wantWorld))
	}
}

// TestPlainWorldResumes: a world file committed before front coding, NAMELINE
// holding every name in full, over the archive it ingested, resumes at its
// cursor without a re-ingest, holds exactly the index and META it held then
// (the digest of their mapped form) and serves what a daemon that ingests
// the same archive now serves. CI runs it at GOMAXPROCS 1 and 4.
func TestPlainWorldResumes(t *testing.T) {
	clean := newTestServer(t, t.TempDir())
	archivetest.Write(t, clean.cfg.ArchivePath, archivetest.PlainArchive)
	runToEnd(t, clean)

	dir := t.TempDir()
	s := newTestServer(t, dir)
	archivetest.Write(t, s.cfg.ArchivePath, archivetest.PlainArchive)
	archivetest.Write(t, s.cfg.WorldPath, archivetest.PlainWorld)
	logged := logtest.Capture(t)
	if err := s.resumeOnce(); err != nil {
		t.Fatal(err)
	}
	if len(logged.Records(refused)) != 0 || s.cur != clean.cur || s.cur.offset != int64(len(archivetest.PlainArchive)) {
		t.Fatalf("resumed at %+v, want %+v at the archive's end without a re-ingest", s.cur, clean.cur)
	}
	mapped := filepath.Join(dir, "mapped.rscw")
	if err := s.ing.Freeze().SaveFile(mapped, s.cur.meta()); err != nil {
		t.Fatal(err)
	}
	if sum := sha256.Sum256(archivetest.Read(t, mapped)); hex.EncodeToString(sum[:]) != archivetest.PlainWorldMapped {
		t.Errorf("the resumed index and META save in the mapped form to digest %x, want %s", sum, archivetest.PlainWorldMapped)
	}
	for _, path := range []string{"/v1/table1", "/v1/operators"} {
		if got, want := get(s.Handler(), path).Body.String(), get(clean.Handler(), path).Body.String(); got != want {
			t.Errorf("%s: the resumed daemon serves\n%s\nwant a fresh ingest's\n%s", path, got, want)
		}
	}
}

// FuzzWorldFile feeds loadWorld arbitrary file bytes: it never panics, and
// every world it accepts, written back through saveWorld and loaded again,
// saves to the same colstore bytes with the same META. Seeded from a
// committed world, the raw colstore world it wraps, a member holding the
// mapped form, a member committed before front coding, and each cut short
// or followed by more bytes.
func FuzzWorldFile(f *testing.F) {
	s := newTestServer(f, f.TempDir())
	archivetest.Write(f, s.cfg.ArchivePath, archiveBytes(f, []simtime.Day{200, 230}, 12))
	runToEnd(f, s)
	member := worldFile(f, s)
	raw := archivetest.Zcat(f, member)
	for _, seed := range [][]byte{member, raw, mappedMember(f, f.TempDir(), member), archivetest.PlainWorld} {
		f.Add(seed)
		f.Add(seed[:len(seed)/2])
		f.Add(seed[:len(seed)-1])
		f.Add(append(bytes.Clone(seed), 0))
		f.Add(append(bytes.Clone(seed), seed...))
	}
	f.Add(member[:len(archivetest.Header)])
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "world.colstore")
		archivetest.Write(t, path, data)
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
