package dataset_test

import (
	"bytes"
	"compress/gzip"
	"context"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// sweepShape is one seeded sweep: a few hundred targets of a divisor-4000
// world over two days. clean is the paper's population; lossy puts 30% of
// the targets behind operators that lose 20% of packets, with one attempt
// a query and no re-sweep so that failures stay in the archive; signed is
// the GTLDIncentives world, about 60% signed at the end of the window.
type sweepShape struct {
	name     string
	scenario tldsim.Scenario
	spec     dsweep.WorldSpec
}

var sweepShapes = []sweepShape{
	{"clean", tldsim.Baseline, dsweep.WorldSpec{Sample: 300}},
	{"lossy", tldsim.Baseline, dsweep.WorldSpec{Sample: 300, FaultFrac: 0.3, FaultLoss: 0.2, Retries: 1, Resweeps: -1}},
	{"signed", tldsim.GTLDIncentives, dsweep.WorldSpec{Sample: 300}},
}

var sweepDays = []simtime.Day{simtime.Date(2016, 11, 30), simtime.End}

// sweptDay is one day of a seeded sweep: the records as the scan emitted
// them, canonicalized, and the section the spill writer made of them.
type sweptDay struct {
	snap    *dataset.Snapshot
	section []byte
}

var sweptCache = map[string][]sweptDay{}

// sweep runs the shape's sweep through the scan engine's chunk loop and a
// spill writer small enough to spill runs, once per test binary.
func sweep(t *testing.T, shape sweepShape) []sweptDay {
	t.Helper()
	if days, ok := sweptCache[shape.name]; ok {
		return days
	}
	spec := shape.spec
	spec.ScaleDiv, spec.Seed, spec.Workers = 4000, 1, 4
	world, err := tldsim.BuildScenario(shape.scenario, spec.WorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	setup := spec.BuildStreamWith(world, nil, 0)
	var days []sweptDay
	for _, day := range sweepDays {
		scanner, src, prepare, err := setup(context.Background(), day)
		if err != nil {
			t.Fatal(err)
		}
		env := &scan.DayEnv{Scanner: scanner, Source: src, Prepare: prepare}
		sw := dataset.NewSpillWriter(day, dataset.SpillOptions{Dir: t.TempDir(), MemBudget: 8 << 10})
		snap := &dataset.Snapshot{Day: day}
		store := &scan.ChunkStore{Progress: checkpoint.NewChunkProgress(64, src.Len())}
		if _, err := env.ScanSpan(context.Background(), day, scan.Span{Hi: src.Len()}, store, func(recs ...dataset.Record) error {
			snap.Records = append(snap.Records, recs...)
			return sw.Append(recs...)
		}); err != nil {
			t.Fatal(err)
		}
		if sw.Runs() == 0 {
			t.Fatalf("%s %s: the spill writer spilled no run", shape.name, day)
		}
		var section bytes.Buffer
		if err := sw.WriteSectionTo(&section); err != nil {
			t.Fatal(err)
		}
		sw.Close()
		snap.Canonicalize()
		days = append(days, sweptDay{snap: snap, section: section.Bytes()})
	}
	sweptCache[shape.name] = days
	return days
}

// TestSweptRecordBytes pins what a swept record costs on disk, in two
// figures per seeded sweep, headers and trailers included, over its
// records: the section text — what zcat prints, the cost of the record line
// itself — and the members written to disk, which add what compress/flate
// makes of that text. A change of the record line moves both; a Go
// toolchain whose compress/flate compresses differently may move only the
// second.
func TestSweptRecordBytes(t *testing.T) {
	type cost struct{ records, signed, failed, text, disk int }
	want := map[string]cost{
		// The long form (every column spelled out, flags as true/false)
		// took 58,938 B (98.2 B/record), 58,196 B (97.0) and 57,558 B (95.9);
		// nine columns with every NS set written in full, 37,982 B (63.3),
		// 37,560 B (62.6) and 37,982 B (63.3); nine columns with NS-set
		// references, 32,544 B (54.2), 32,240 B (53.7) and 32,544 B (54.2).
		// Those, and today's text, were written to disk as they are.
		"clean":  {600, 32, 0, 24896, 5410},  // 41.5 text, 9.0 disk B/record
		"lossy":  {600, 30, 20, 24666, 5451}, // 41.1 text, 9.1 disk B/record
		"signed": {600, 384, 0, 26628, 5850}, // 44.4 text, 9.8 disk B/record
	}
	for _, shape := range sweepShapes {
		var got cost
		for _, d := range sweep(t, shape) {
			got.records += len(d.snap.Records)
			got.text += len(zcat(t, d.section))
			got.disk += len(d.section)
			for _, r := range d.snap.Records {
				if r.HasDNSKEY {
					got.signed++
				}
				if r.Failed {
					got.failed++
				}
			}
		}
		if got != want[shape.name] {
			t.Errorf("%s: %+v (%.1f text, %.1f disk B/record), want %+v", shape.name, got,
				float64(got.text)/float64(got.records), float64(got.disk)/float64(got.records), want[shape.name])
		}
	}
}

// zcat is what zcat prints of archive bytes: the text of every member.
func zcat(t *testing.T, archive []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// sectionReaders are the three readers of a section: ReadArchive,
// TailArchive and the checkpoint's chunk reader, each handed one section's
// bytes and returning its snapshot.
func sectionReaders(t *testing.T) map[string]func(section []byte, want *dataset.Snapshot) (*dataset.Snapshot, error) {
	dir := t.TempDir()
	chunks, err := checkpoint.Open(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	castagnoli := crc32.MakeTable(crc32.Castagnoli)
	return map[string]func([]byte, *dataset.Snapshot) (*dataset.Snapshot, error){
		"ReadArchive": func(section []byte, want *dataset.Snapshot) (*dataset.Snapshot, error) {
			store, err := dataset.ReadArchiveStrict(bytes.NewReader(section))
			if err != nil {
				return nil, err
			}
			return store.Get(want.Day), nil
		},
		"TailArchive": func(section []byte, _ *dataset.Snapshot) (*dataset.Snapshot, error) {
			path := filepath.Join(dir, "tail.tsv")
			if err := os.WriteFile(path, section, 0o644); err != nil {
				return nil, err
			}
			res, err := dataset.TailArchive(path, 0)
			if err != nil || len(res.Events) != 1 {
				return nil, err
			}
			return res.Events[0].Snap, nil
		},
		"LoadChunk": func(section []byte, want *dataset.Snapshot) (*dataset.Snapshot, error) {
			const name = "chunk.tsv"
			if err := os.WriteFile(filepath.Join(chunks.Dir(), name), section, 0o644); err != nil {
				return nil, err
			}
			return chunks.LoadChunk(want.Day, &checkpoint.Shard{
				File: name, CRC: crc32.Checksum(section, castagnoli), Records: len(want.Records)})
		},
	}
}

// checkDecodes requires every section reader to read section back to
// want's records.
func checkDecodes(t *testing.T, readers map[string]func([]byte, *dataset.Snapshot) (*dataset.Snapshot, error), what string, section []byte, want *dataset.Snapshot) {
	t.Helper()
	for reader, read := range readers {
		got, err := read(section, want)
		if err != nil || got == nil {
			t.Fatalf("%s, %s: %v", what, reader, err)
		}
		if !reflect.DeepEqual(got.Records, want.Records) {
			t.Errorf("%s, %s: records differ from the sweep's", what, reader)
		}
	}
}

// TestLongFormDecodesIdentically: each seeded sweep's days, written by
// the spill writer in today's form and by the reference writer in the
// long form, read back to the records the scan emitted — through
// ReadArchive, TailArchive and the checkpoint's chunk reader alike.
func TestLongFormDecodesIdentically(t *testing.T) {
	readers := sectionReaders(t)
	for _, shape := range sweepShapes {
		for _, d := range sweep(t, shape) {
			var long bytes.Buffer
			if err := dataset.WriteLongSection(&long, d.snap); err != nil {
				t.Fatal(err)
			}
			for form, section := range map[string][]byte{"today's": d.section, "long": long.Bytes()} {
				checkDecodes(t, readers, fmt.Sprintf("%s %s, %s form", shape.name, d.snap.Day, form), section, d.snap)
			}
		}
	}
}

// legacyArchives names what each testdata/archive-*.tsv holds: an archive
// an earlier writer made, the snapshots it must read back to, and whether
// it writes repeated NS sets as references.
var legacyArchives = map[string]struct {
	snaps func(t *testing.T) []*dataset.Snapshot
	refs  bool
}{
	// The long form (every column spelled out, flags as true/false) of a
	// hand-made fixture.
	"archive-parent.tsv": {snaps: func(*testing.T) []*dataset.Snapshot {
		fixture := dataset.LongFormFixture()
		var snaps []*dataset.Snapshot
		for _, day := range fixture.Days() {
			snaps = append(snaps, fixture.Get(day))
		}
		return snaps
	}},
	// The clean sweep's two days in nine columns, every NS set in full.
	"archive-full-ns.tsv": {snaps: cleanSweepDays},
	// The clean sweep's two days in nine columns, with NS-set references.
	"archive-nsref.tsv": {snaps: cleanSweepDays, refs: true},
	// The clean sweep's two days in lines of two to six fields, as text
	// sections: the last form written before each section became a gzip
	// member, and what zcat prints of today's archive of the sweep.
	"archive-text.tsv": {snaps: cleanSweepDays, refs: true},
}

func cleanSweepDays(t *testing.T) []*dataset.Snapshot {
	var snaps []*dataset.Snapshot
	for _, d := range sweep(t, sweepShapes[0]) {
		snaps = append(snaps, d.snap)
	}
	return snaps
}

// TestLegacyArchivesDecode: every committed testdata/archive-*.tsv, each a
// form an earlier writer made, reads back section by section to the
// snapshots it was made of, through ReadArchive, TailArchive and the
// checkpoint's chunk reader alike; and none of its sections is what
// today's writer makes of those records.
func TestLegacyArchivesDecode(t *testing.T) {
	files, err := filepath.Glob(filepath.Join("testdata", "archive-*.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != len(legacyArchives) {
		t.Fatalf("testdata holds %d archives %q, the table names %d", len(files), files, len(legacyArchives))
	}
	readers := sectionReaders(t)
	for _, file := range files {
		t.Run(filepath.Base(file), func(t *testing.T) {
			want, ok := legacyArchives[filepath.Base(file)]
			if !ok {
				t.Fatal("the table does not name this archive")
			}
			archive, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if refs := bytes.Contains(archive, []byte("\t=")); refs != want.refs {
				t.Fatalf("the archive holds NS-set references: %v, want %v", refs, want.refs)
			}
			for _, snap := range want.snaps(t) {
				// Each section ends with its trailer line.
				end := bytes.Index(archive, []byte("\n#end\t")) + 1
				end += bytes.IndexByte(archive[end:], '\n') + 1
				section := archive[:end]
				archive = archive[end:]
				var today bytes.Buffer
				if err := snap.WriteArchiveSection(&today); err != nil {
					t.Fatal(err)
				}
				if bytes.Equal(section, today.Bytes()) {
					t.Fatalf("%s: the section is today's form", snap.Day)
				}
				checkDecodes(t, readers, snap.Day.String(), section, snap)
			}
			if len(archive) != 0 {
				t.Fatalf("%d bytes after the expected days", len(archive))
			}
		})
	}
}

// TestTornLineQuarantined: a line of today's form that lost its trailing
// fields still parses, so a torn line is caught by the section's framing
// alone. The section here is the clean sweep's first day cut down to its
// signed records and every eighth of the rest, in today's form; every
// single-byte deletion inside the record lines of its text, and the member
// and its text cut at every offset, are kept out by ReadArchive,
// TailArchive and the checkpoint's chunk reader.
func TestTornLineQuarantined(t *testing.T) {
	day := sweep(t, sweepShapes[0])[0].snap
	snap := &dataset.Snapshot{Day: day.Day}
	for i, r := range day.Records {
		if r.HasDNSKEY || i%8 == 0 {
			snap.Records = append(snap.Records, r)
		}
	}
	var buf bytes.Buffer
	if err := snap.WriteArchiveSection(&buf); err != nil {
		t.Fatal(err)
	}
	member := buf.Bytes()
	section := zcat(t, member)
	readers := sectionReaders(t)
	checkDecodes(t, readers, "intact", member, snap)
	checkDecodes(t, readers, "intact text", section, snap)
	refuse := func(what string, torn []byte) {
		for reader, read := range readers {
			if got, err := read(torn, snap); err == nil && got != nil {
				t.Fatalf("%s: %s read the section as %d records", what, reader, len(got.Records))
			}
		}
	}
	first, trailer := bytes.IndexByte(section, '\n')+1, bytes.LastIndex(section, []byte("#end\t"))
	for i := first; i < trailer; i++ {
		if section[i] != '\n' { // inside a record line
			refuse(fmt.Sprintf("byte %d deleted", i), append(section[:i:i], section[i+1:]...))
		}
	}
	for n := range len(section) {
		refuse(fmt.Sprintf("text cut at %d", n), section[:n])
	}
	for n := range len(member) {
		refuse(fmt.Sprintf("member cut at %d", n), member[:n])
	}
}

// TestMembersZcatToTheTextForm: zcat of today's archive of the clean sweep
// is byte for byte the text archive the writer before members wrote of it.
func TestMembersZcatToTheTextForm(t *testing.T) {
	want, err := os.ReadFile(filepath.Join("testdata", "archive-text.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	var archive []byte
	for _, d := range sweep(t, sweepShapes[0]) {
		archive = append(archive, d.section...)
	}
	if got := zcat(t, archive); !bytes.Equal(got, want) {
		t.Fatalf("zcat prints %d bytes that differ from the %d of testdata/archive-text.tsv", len(got), len(want))
	}
}

// TestMixedFormsDecode: an archive holding text sections and members, in
// either order, reads to the sweep's records through ReadArchive and
// TailArchive; and a chunk file in either form through the checkpoint's
// chunk reader, as a resume reads what an earlier writer left.
func TestMixedFormsDecode(t *testing.T) {
	days := sweep(t, sweepShapes[0])
	member := func(d sweptDay) []byte { return d.section }
	text := func(d sweptDay) []byte { return zcat(t, d.section) }
	readers := sectionReaders(t)
	for _, d := range days {
		checkDecodes(t, map[string]func([]byte, *dataset.Snapshot) (*dataset.Snapshot, error){"LoadChunk": readers["LoadChunk"]},
			fmt.Sprintf("%s as text", d.snap.Day), text(d), d.snap)
	}
	for name, forms := range map[string][2]func(sweptDay) []byte{
		"text, then member": {text, member},
		"member, then text": {member, text},
	} {
		archive := append(forms[0](days[0]), forms[1](days[1])...)
		store, err := dataset.ReadArchiveStrict(bytes.NewReader(archive))
		if err != nil {
			t.Fatalf("%s: ReadArchive: %v", name, err)
		}
		path := filepath.Join(t.TempDir(), "mixed.tsv")
		if err := os.WriteFile(path, archive, 0o644); err != nil {
			t.Fatal(err)
		}
		res, err := dataset.TailArchive(path, 0)
		if err != nil || len(res.Events) != len(days) || res.Offset != int64(len(archive)) {
			t.Fatalf("%s: TailArchive: %v, %d events to offset %d of %d bytes", name, err, len(res.Events), res.Offset, len(archive))
		}
		for i, d := range days {
			if got := store.Get(d.snap.Day); got == nil || !reflect.DeepEqual(got.Records, d.snap.Records) {
				t.Errorf("%s: ReadArchive: day %s differs from the sweep's", name, d.snap.Day)
			}
			if got := res.Events[i].Snap; got == nil || !reflect.DeepEqual(got.Records, d.snap.Records) {
				t.Errorf("%s: TailArchive: day %s differs from the sweep's", name, d.snap.Day)
			}
		}
	}
}
