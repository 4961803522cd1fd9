package dataset_test

import (
	"bytes"
	"context"
	"fmt"
	"hash/crc32"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
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

// keyedSweepDays are the days of a multi-day archive of a seeded sweep: two
// daily sweeps, then one a month on.
var keyedSweepDays = []simtime.Day{simtime.Date(2016, 11, 30), simtime.Date(2016, 12, 1), simtime.End}

// sweptDay is one day of a seeded sweep: the records as the scan emitted
// them, canonicalized, and the section the spill writer made of them.
type sweptDay struct {
	snap    *dataset.Snapshot
	section []byte
}

var (
	sweptCache = map[string]sweptDay{} // by shape and day
	sweepSetup = map[string]scan.StreamDaySetup{}
)

// sweep runs the shape's sweep of sweepDays.
func sweep(t *testing.T, shape sweepShape) []sweptDay {
	t.Helper()
	return sweepOn(t, shape, sweepDays)
}

// sweepOn runs the shape's sweep of days through the scan engine's chunk
// loop and a spill writer small enough to spill runs, each day once per test
// binary.
func sweepOn(t *testing.T, shape sweepShape, sweepDays []simtime.Day) []sweptDay {
	t.Helper()
	setup, ok := sweepSetup[shape.name]
	if !ok {
		spec := shape.spec
		spec.ScaleDiv, spec.Seed, spec.Workers = 4000, 1, 4
		world, err := tldsim.BuildScenario(shape.scenario, spec.WorldConfig())
		if err != nil {
			t.Fatal(err)
		}
		setup = spec.BuildStreamWith(world, nil, 0)
		sweepSetup[shape.name] = setup
	}
	var days []sweptDay
	for _, day := range sweepDays {
		if d, ok := sweptCache[shape.name+" "+day.String()]; ok {
			days = append(days, d)
			continue
		}
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
		d := sweptDay{snap: snap, section: section.Bytes()}
		sweptCache[shape.name+" "+day.String()] = d
		days = append(days, d)
	}
	return days
}

// TestSweptRecordBytes pins what a swept record costs on disk, in two
// figures per seeded sweep, headers and trailers included, over its
// records: the section text — what zcat prints, the cost of the record line
// itself — and the members written to disk, which add what compress/flate
// makes of that text. A change of the record line moves both; a Go
// toolchain whose compress/flate compresses differently may move only the
// second. The rows of single sections are each day self-contained; the
// multi-day row is what an ArchiveWriter makes of three days, keyed.
func TestSweptRecordBytes(t *testing.T) {
	type cost struct{ records, signed, failed, text, disk int }
	want := map[string]cost{
		// The long form (every column spelled out, flags as true/false)
		// took 58,938 B (98.2 B/record), 58,196 B (97.0) and 57,558 B (95.9);
		// nine columns with every NS set written in full, 37,982 B (63.3),
		// 37,560 B (62.6) and 37,982 B (63.3); nine columns with NS-set
		// references, 32,544 B (54.2), 32,240 B (53.7) and 32,544 B (54.2).
		// Those, and the text of plain names, were written to disk as they
		// are. The text of plain names deflated at gzip.BestSpeed took
		// 5,410 B (9.0 disk B/record), 5,451 B (9.1) and 5,850 B (9.8); by
		// the member writer, 24,896 text and 5,032 disk B (41.5 and 8.4
		// B/record), 24,666 and 5,058 B (41.1 and 8.4) and 26,628 and
		// 5,348 B (44.4 and 8.9). Today's text front-codes the domains.
		"clean":  {600, 32, 0, 22462, 5014},  // 37.4 text, 8.4 disk B/record
		"lossy":  {600, 30, 20, 22232, 5043}, // 37.1 text, 8.4 disk B/record
		"signed": {600, 384, 0, 24194, 5271}, // 40.3 text, 8.8 disk B/record
	}
	for _, shape := range sweepShapes {
		var got cost
		for _, d := range sweep(t, shape) {
			got.records += len(d.snap.Records)
			got.text += len(archivetest.Zcat(t, d.section))
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

	// The multi-day row: keyedSweepDays through an ArchiveWriter, a key and
	// two sections keyed to it. As self-contained sections the same days
	// take 33,693 text and 7,521 disk B (37.4 and 8.4 B/record), 33,348 and
	// 7,564 B (37.1 and 8.4) and 36,291 and 7,907 B (40.3 and 8.8).
	type archiveCost struct{ records, text, disk int }
	keyedWant := map[string]archiveCost{
		"clean":  {900, 12597, 2707}, // 14.0 text, 3.01 disk B/record
		"lossy":  {900, 12482, 2720}, // 13.9 text, 3.02 disk B/record
		"signed": {900, 13463, 2835}, // 15.0 text, 3.15 disk B/record
	}
	for _, shape := range sweepShapes {
		days := sweepOn(t, shape, keyedSweepDays)
		path := filepath.Join(t.TempDir(), "archive.tsv")
		aw, err := dataset.NewArchiveWriter(path)
		if err != nil {
			t.Fatal(err)
		}
		var got archiveCost
		for _, d := range days {
			sw := dataset.NewSpillWriter(d.snap.Day, dataset.SpillOptions{Dir: t.TempDir()})
			if err := sw.Append(d.snap.Records...); err != nil {
				t.Fatal(err)
			}
			if err := aw.Section(sw); err != nil {
				t.Fatal(err)
			}
			sw.Close()
			got.records += len(d.snap.Records)
		}
		if err := aw.Close(); err != nil {
			t.Fatal(err)
		}
		archive := archivetest.Read(t, path)
		got.text, got.disk = len(archivetest.Zcat(t, archive)), len(archive)
		if got != keyedWant[shape.name] {
			t.Errorf("%s keyed: %+v (%.1f text, %.2f disk B/record), want %+v", shape.name, got,
				float64(got.text)/float64(got.records), float64(got.disk)/float64(got.records), keyedWant[shape.name])
		}
		store, err := dataset.ReadArchiveStrict(bytes.NewReader(archive))
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range days {
			if !reflect.DeepEqual(store.Get(d.snap.Day), d.snap) {
				t.Errorf("%s keyed, %s: records differ from the sweep's", shape.name, d.snap.Day)
			}
		}
	}
}

// sectionReaders are the three readers of a section: ReadArchive,
// TailArchive and the checkpoint's chunk reader, each handed one section's
// bytes and returning its snapshot. The two readers of files each rewrite
// one file they hold open.
func sectionReaders(t *testing.T) map[string]func(section []byte, want *dataset.Snapshot) (*dataset.Snapshot, error) {
	dir := t.TempDir()
	chunks, err := checkpoint.Open(filepath.Join(dir, "checkpoint"))
	if err != nil {
		t.Fatal(err)
	}
	const chunk = "chunk.tsv"
	tailPath := filepath.Join(dir, "tail.tsv")
	tailFile, chunkFile := rewritten(t, tailPath), rewritten(t, filepath.Join(chunks.Dir(), chunk))
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
			if err := tailFile(section); err != nil {
				return nil, err
			}
			res, err := dataset.TailArchive(tailPath, 0)
			if err != nil || len(res.Events) != 1 {
				return nil, err
			}
			return res.Events[0].Snap, nil
		},
		"LoadChunk": func(section []byte, want *dataset.Snapshot) (*dataset.Snapshot, error) {
			if err := chunkFile(section); err != nil {
				return nil, err
			}
			return chunks.LoadChunk(want.Day, &checkpoint.Shard{
				File: chunk, CRC: crc32.Checksum(section, castagnoli), Records: len(want.Records)})
		},
	}
}

// rewritten opens the file at path for the test and returns what replaces
// its contents.
func rewritten(t *testing.T, path string) func([]byte) error {
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return func(b []byte) error {
		if _, err := f.WriteAt(b, 0); err != nil {
			return err
		}
		return f.Truncate(int64(len(b)))
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

// handMadeDays are two sections of hand-made records that a seeded sweep
// does not make: a Failed record with a class and one without, an empty NS
// set, an awsdns and a 1and1 NS set, a TLD of two labels, and operators
// that are not the grouping of their hosts (cohort names of the world).
func handMadeDays() []*dataset.Snapshot {
	var days []*dataset.Snapshot
	for k, day := range []simtime.Day{simtime.Date(2016, 6, 30), simtime.End} {
		snap := &dataset.Snapshot{Day: day, Records: []dataset.Record{
			{Domain: "alpha.com", TLD: "com", NSHosts: []string{"ns-1.awsdns-13.net", "ns-2.awsdns-07.co.uk"}, Operator: "awsdns",
				HasDNSKEY: true, HasRRSIG: true, HasDS: k == 1, ChainValid: k == 1},
			{Domain: "beta.de", TLD: "de", NSHosts: []string{"ns-1and1.co.uk", "ns.1and1.fr"}, Operator: "1and1",
				HasDNSKEY: true, HasRRSIG: true},
			{Domain: "gamma.nl", TLD: "nl", NSHosts: []string{"ns1.transip.nl", "ns2.transip.net"}, Operator: "transip.nl",
				HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true},
			{Domain: "delta.com", TLD: "com", NSHosts: []string{"ns1.tail0001.com-hosting.example"}, Operator: "tail0001.com-hosting.example",
				HasDNSKEY: k == 1, HasRRSIG: k == 1, HasDS: k == 1},
			{Domain: "epsilon.org", TLD: "org", NSHosts: []string{"ns1.ovh.net"}, Operator: "ovh.net"},
			{Domain: "zeta.co.uk", TLD: "co.uk", NSHosts: []string{"ns1.ovh.net"}, Operator: "ovh.net", HasDNSKEY: true},
			{Domain: "eta.nl", TLD: "nl", Failed: true},
		}}
		if k == 0 {
			snap.Records[4] = dataset.Record{Domain: "epsilon.org", TLD: "org", Failed: true, FailReason: "timeout"}
		}
		snap.Canonicalize()
		days = append(days, snap)
	}
	return days
}

// TestSectionsDecode: each seeded sweep's days, as the spill writer wrote
// them, and the hand-made days, as WriteArchiveSection writes them, read
// back to their records through ReadArchive, TailArchive and the
// checkpoint's chunk reader alike.
func TestSectionsDecode(t *testing.T) {
	readers := sectionReaders(t)
	for _, shape := range sweepShapes {
		for _, d := range sweep(t, shape) {
			checkDecodes(t, readers, fmt.Sprintf("%s %s", shape.name, d.snap.Day), d.section, d.snap)
		}
	}
	for _, snap := range handMadeDays() {
		var section bytes.Buffer
		if err := snap.WriteArchiveSection(&section); err != nil {
			t.Fatal(err)
		}
		// A Failed record without a class reads back as "failed".
		for i := range snap.Records {
			if snap.Records[i].Failed && snap.Records[i].FailReason == "" {
				snap.Records[i].FailReason = "failed"
			}
		}
		checkDecodes(t, readers, "hand-made "+snap.Day.String(), section.Bytes(), snap)
	}
}

// multiBlockDay is a seeded section of more than three of the member
// writer's blocks of text: 25,000 records of a few hundred operators, a
// tenth of them Failed. (20,000 records made four blocks before front
// coding, three since.)
func multiBlockDay() *dataset.Snapshot {
	rng := rand.New(rand.NewPCG(42, 0))
	tlds := []string{"com", "net", "org"}
	snap := &dataset.Snapshot{Day: simtime.End}
	for i := range 25000 {
		tld := tlds[rng.IntN(len(tlds))]
		r := dataset.Record{Domain: fmt.Sprintf("d%05d-%x.%s", i, rng.Uint32()>>16, tld), TLD: tld}
		if rng.IntN(10) == 0 {
			r.Failed, r.FailReason = true, "timeout"
		} else {
			op := fmt.Sprintf("op%d.net", rng.IntN(300))
			r.NSHosts, r.Operator = []string{"ns1." + op, "ns2." + op}, op
			r.HasDNSKEY = rng.IntN(4) == 0
			r.HasRRSIG, r.HasDS = r.HasDNSKEY, r.HasDNSKEY && rng.IntN(2) == 0
			r.ChainValid = r.HasDS
		}
		snap.Records = append(snap.Records, r)
	}
	snap.Canonicalize()
	return snap
}

// writeLog records the offset each write to it ends at.
type writeLog struct {
	bytes.Buffer
	ends []int
}

func (w *writeLog) Write(p []byte) (int, error) {
	w.Buffer.Write(p)
	w.ends = append(w.ends, w.Len())
	return len(p), nil
}

// TestMultiBlockSection: a section deflated in more than three blocks
// reads back through ReadArchive, TailArchive and the checkpoint's chunk
// reader; cut at the end of any block, a byte either side of it, or inside
// the final block, it is refused by all three and left as still growing by
// a tail scan; with a bit flipped inside its second block it is
// quarantined.
func TestMultiBlockSection(t *testing.T) {
	snap := multiBlockDay()
	var buf bytes.Buffer
	if err := snap.WriteArchiveSection(&buf); err != nil {
		t.Fatal(err)
	}
	section := buf.Bytes()
	// The member writer writes the header, each block and the trailer in
	// one write each.
	var log writeLog
	mw := dataset.NewMemberWriter(&log)
	mw.Write(archivetest.Zcat(t, section)) // writeLog does not fail
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(log.Bytes(), section) {
		t.Fatal("the section's text written again is not the section")
	}
	blockEnds := log.ends[1 : len(log.ends)-1]
	if len(blockEnds) <= 3 {
		t.Fatalf("the section is %d block(s), want more than 3", len(blockEnds))
	}
	readers := sectionReaders(t)
	checkDecodes(t, readers, "intact", section, snap)

	dir := t.TempDir()
	tail := func(archive []byte) *dataset.TailResult {
		path := filepath.Join(dir, "tail.tsv")
		archivetest.Write(t, path, archive)
		res, err := dataset.TailArchive(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	refused := func(what string, damaged []byte) {
		t.Helper()
		for reader, read := range readers {
			if got, err := read(damaged, snap); err == nil && got != nil {
				t.Errorf("%s: %s read the section as %d records", what, reader, len(got.Records))
			}
		}
	}
	cuts := map[string]int{}
	for k, end := range blockEnds {
		for d := -1; d <= 1; d++ {
			cuts[fmt.Sprintf("block %d's end %+d", k+1, d)] = end + d
		}
	}
	last := blockEnds[len(blockEnds)-1]
	cuts["inside the final block"] = (blockEnds[len(blockEnds)-2] + last) / 2
	for what, n := range cuts {
		refused("cut at "+what, section[:n])
		if res := tail(section[:n]); len(res.Events) != 0 || res.Offset != 0 {
			t.Errorf("cut at %s: a tail scan consumed %d event(s) to offset %d, want the section left growing", what, len(res.Events), res.Offset)
		}
	}

	flipped := bytes.Clone(section)
	flipped[(blockEnds[0]+blockEnds[1])/2] ^= 0x10
	refused("a bit flipped inside block 2", flipped)
	store, report, err := dataset.ReadArchive(bytes.NewReader(flipped))
	if err != nil || store.Len() != 0 || report.Clean() || report.Quarantined[0].Offset != 0 {
		t.Errorf("a bit flipped inside block 2: %v, %d snapshot(s), %s", err, store.Len(), report)
	}
	if res := tail(flipped); len(res.Events) == 0 || res.Events[0].Damage == nil || res.Events[0].Damage.Offset != 0 {
		t.Errorf("a bit flipped inside block 2: tail events %+v, want the section's damage first", res.Events)
	}
}

// TestTornLineQuarantined: a line of today's form that lost its trailing
// fields still parses, so a torn line is caught by the section's framing
// alone. The section here is the clean sweep's first day cut down to its
// signed records and every eighth of the rest; every single-byte deletion
// inside the record lines of its text, and its text cut at every offset,
// each deflated into a member, and the member cut at every offset, are
// kept out by ReadArchive, TailArchive and the checkpoint's chunk reader.
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
	section := archivetest.Zcat(t, member)
	readers := sectionReaders(t)
	checkDecodes(t, readers, "intact", member, snap)
	refuse := func(what string, torn []byte) {
		for reader, read := range readers {
			if got, err := read(torn, snap); err == nil && got != nil {
				t.Fatalf("%s: %s read the section as %d records", what, reader, len(got.Records))
			}
		}
	}
	// One compressor and one buffer serve every case.
	var d archivetest.Deflater
	torn := make([]byte, 0, len(section))
	first, trailer := bytes.IndexByte(section, '\n')+1, bytes.LastIndex(section, []byte("#end\t"))
	for i := first; i < trailer; i++ {
		if section[i] != '\n' { // inside a record line
			torn = append(append(torn[:0], section[:i]...), section[i+1:]...)
			refuse(fmt.Sprintf("byte %d deleted", i), d.Member(torn))
		}
	}
	for n := range len(section) {
		refuse(fmt.Sprintf("text cut at %d", n), d.Member(section[:n]))
	}
	for n := range len(member) {
		refuse(fmt.Sprintf("member cut at %d", n), member[:n])
	}
}

// TestMembersZcatToTheTextForm: zcat of today's archive of the clean sweep
// is byte for byte testdata/archive-text.tsv: the text archive the writer
// before members wrote of it, but for its record lines' front-coded domains
// and the trailers that sum them.
func TestMembersZcatToTheTextForm(t *testing.T) {
	want := archivetest.Read(t, filepath.Join("testdata", "archive-text.tsv"))
	var archive []byte
	for _, d := range sweep(t, sweepShapes[0]) {
		archive = append(archive, d.section...)
	}
	if got := archivetest.Zcat(t, archive); !bytes.Equal(got, want) {
		t.Fatalf("zcat prints %d bytes that differ from the %d of testdata/archive-text.tsv", len(got), len(want))
	}
}

// frontArchiveDays are the records archivetest.FrontArchive read to when it
// was written, every section self-contained and its domains front-coded:
// three days of mostly the same domains, with NS-set references, signed and
// failed records, domains that come and go, an explicit operator and
// explicit TLDs.
func frontArchiveDays() []*dataset.Snapshot {
	pair := []string{"ns1.op.net", "ns2.op.net"}
	transip := []string{"ns1.transip.nl", "ns2.transip.net"}
	ovh := []string{"ns1.ovh.net"}
	day := func(d int, recs ...dataset.Record) *dataset.Snapshot {
		snap := &dataset.Snapshot{Day: simtime.Date(2016, 3, d), Records: recs}
		snap.Canonicalize()
		return snap
	}
	alpha := dataset.Record{Domain: "alpha.com", TLD: "com", NSHosts: pair, Operator: "op.net", HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true}
	alphabet := dataset.Record{Domain: "alphabet.com", TLD: "com", NSHosts: pair, Operator: "op.net"}
	beta := dataset.Record{Domain: "beta.com", TLD: "com", NSHosts: []string{"ns1.other.net"}, Operator: "reseller.example"}
	delta := dataset.Record{Domain: "delta.co.uk", TLD: "co.uk", NSHosts: ovh, Operator: "ovh.net", HasDNSKEY: true}
	gamma := dataset.Record{Domain: "gamma.nl", TLD: "nl", NSHosts: transip, Operator: "transip.nl", HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true}
	zeta := dataset.Record{Domain: "zeta.example", TLD: "org", NSHosts: pair, Operator: "op.net", HasDNSKEY: true}
	deltaDS := delta
	deltaDS.HasRRSIG, deltaDS.HasDS = true, true
	return []*dataset.Snapshot{
		day(1, alpha, alphabet, beta, delta, gamma, zeta,
			dataset.Record{Domain: "alpine.com", TLD: "com", Failed: true, FailReason: "timeout"}),
		day(2, alpha, alphabet, beta, delta, zeta,
			dataset.Record{Domain: "alpine.com", TLD: "com", NSHosts: pair, Operator: "op.net"},
			dataset.Record{Domain: "alps.com", TLD: "com", NSHosts: ovh, Operator: "ovh.net"},
			dataset.Record{Domain: "gamma.nl", TLD: "nl", Failed: true, FailReason: "lame"}),
		day(3, alpha, beta, deltaDS, gamma, zeta,
			dataset.Record{Domain: "alpine.com", TLD: "com", NSHosts: pair, Operator: "op.net"},
			dataset.Record{Domain: "alps.com", TLD: "com", NSHosts: ovh, Operator: "ovh.net"},
			dataset.Record{Domain: "epsilon.org", TLD: "org", Failed: true, FailReason: "failed"}),
	}
}

// plainArchiveDays are the records archivetest.PlainArchive read to when it
// was written, before front coding: two sections with an NS-set reference in
// each, a failed record in each, an explicit operator and an explicit TLD.
func plainArchiveDays() []*dataset.Snapshot {
	pair := []string{"ns1.op.net", "ns2.op.net"}
	return []*dataset.Snapshot{
		{Day: simtime.Date(2016, 1, 1), Records: []dataset.Record{
			{Domain: "alpha.com", TLD: "com", NSHosts: pair, Operator: "op.net", HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true},
			{Domain: "alphabet.com", TLD: "com", NSHosts: pair, Operator: "op.net"},
			{Domain: "alpine.com", TLD: "com", Failed: true, FailReason: "timeout"},
			{Domain: "beta.com", TLD: "com", NSHosts: []string{"ns1.other.net"}, Operator: "reseller.example"},
			{Domain: "zeta.example", TLD: "org", NSHosts: pair, Operator: "op.net", HasDNSKEY: true},
		}},
		{Day: simtime.Date(2016, 6, 1), Records: []dataset.Record{
			{Domain: "alpha.com", TLD: "com", NSHosts: []string{"ns1.op.net"}, Operator: "op.net", HasDNSKEY: true, HasRRSIG: true},
			{Domain: "alphabet.com", TLD: "com", Failed: true, FailReason: "lame"},
			{Domain: "alps.com", TLD: "com", NSHosts: []string{"ns1.op.net"}, Operator: "op.net"},
			{Domain: "beta.com", TLD: "com", NSHosts: []string{"ns1.other.net"}, Operator: "other.net"},
		}},
	}
}

// TestPlainArchiveReads: an archive written before front coding, every
// domain in full, reads to exactly the records it read to then — each
// section through ReadArchive, TailArchive and the checkpoint's chunk
// reader, and the whole file through ReadArchiveStrict and TailArchive.
func TestPlainArchiveReads(t *testing.T) {
	days := plainArchiveDays()
	members := archivetest.Members(t, archivetest.PlainArchive)
	if len(members) != len(days) {
		t.Fatalf("%d members, want %d", len(members), len(days))
	}
	readers := sectionReaders(t)
	for i, section := range members {
		checkDecodes(t, readers, days[i].Day.String(), section, days[i])
	}
	store, err := dataset.ReadArchiveStrict(bytes.NewReader(archivetest.PlainArchive))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "plain.tsv")
	archivetest.Write(t, path, archivetest.PlainArchive)
	tail, err := dataset.TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(days) || len(tail.Events) != len(days) || tail.Offset != int64(len(archivetest.PlainArchive)) {
		t.Fatalf("ReadArchiveStrict kept %d day(s), TailArchive %d event(s) to offset %d; want %d of each to %d",
			store.Len(), len(tail.Events), tail.Offset, len(days), len(archivetest.PlainArchive))
	}
	for i, want := range days {
		if got := store.Get(want.Day); got == nil || !reflect.DeepEqual(got.Records, want.Records) {
			t.Errorf("ReadArchiveStrict, %s: %+v, want %+v", want.Day, got, want)
		}
		if got := tail.Events[i].Snap; got == nil || !reflect.DeepEqual(got, want) {
			t.Errorf("TailArchive, event %d: %+v, want %+v", i, got, want)
		}
	}
}

// TestFrontArchiveReads: an archive written when every section was
// self-contained reads to exactly the records it read to then — each section
// through ReadArchive, TailArchive and the checkpoint's chunk reader, and the
// whole file through ReadArchiveStrict and TailArchive — and its days,
// written as self-contained sections again, are its bytes.
func TestFrontArchiveReads(t *testing.T) {
	days := frontArchiveDays()
	members := archivetest.Members(t, archivetest.FrontArchive)
	if len(members) != len(days) {
		t.Fatalf("%d members, want %d", len(members), len(days))
	}
	readers := sectionReaders(t)
	for i, section := range members {
		checkDecodes(t, readers, days[i].Day.String(), section, days[i])
	}
	store, err := dataset.ReadArchiveStrict(bytes.NewReader(archivetest.FrontArchive))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "front.tsv")
	archivetest.Write(t, path, archivetest.FrontArchive)
	tail, err := dataset.TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != len(days) || len(tail.Events) != len(days) || tail.Offset != int64(len(archivetest.FrontArchive)) {
		t.Fatalf("ReadArchiveStrict kept %d day(s), TailArchive %d event(s) to offset %d; want %d of each to %d",
			store.Len(), len(tail.Events), tail.Offset, len(days), len(archivetest.FrontArchive))
	}
	for i, want := range days {
		if got := store.Get(want.Day); got == nil || !reflect.DeepEqual(got.Records, want.Records) {
			t.Errorf("ReadArchiveStrict, %s: %+v, want %+v", want.Day, got, want)
		}
		if got := tail.Events[i].Snap; got == nil || !reflect.DeepEqual(got, want) {
			t.Errorf("TailArchive, event %d: %+v, want %+v", i, got, want)
		}
	}
	if !bytes.Equal(archivetest.Archive(t, days...), archivetest.FrontArchive) {
		t.Error("the days written as self-contained sections differ from testdata/front-archive.tsv")
	}
}
