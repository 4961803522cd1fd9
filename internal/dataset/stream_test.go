package dataset

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/simtime"
)

// fakeRecords fabricates a deterministic, shuffled record population with
// every field class exercised (failed records, empty NS sets, multi-host
// NS sets, TLDs of two labels, which the line spells out and which sort
// apart from the domain's last label).
func fakeRecords(n int, seed int64) []Record {
	rng := rand.New(rand.NewSource(seed))
	tlds := []string{"com", "net", "org", "nl", "se"}
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		tld := tlds[rng.Intn(len(tlds))]
		r := Record{
			Domain:   fmt.Sprintf("d%06d.%s", i, tld),
			TLD:      tld,
			Operator: fmt.Sprintf("op%d", rng.Intn(40)),
		}
		if i%9 == 0 {
			r.Domain, r.TLD = fmt.Sprintf("d%06d.co.%s", i, tld), "co."+tld
		}
		switch rng.Intn(4) {
		case 0:
			r.Failed, r.FailReason = true, "timeout"
		case 1:
			r.NSHosts = []string{"ns1.x.net", "ns2.x.net"}
			r.HasDNSKEY, r.HasRRSIG = true, true
		case 2:
			r.NSHosts = []string{"ns1.y.net"}
			r.HasDNSKEY, r.HasDS, r.ChainValid, r.HasRRSIG = true, true, true, true
		}
		recs = append(recs, r)
	}
	rng.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

// oracleSection renders records through the in-RAM path.
func oracleSection(t *testing.T, day simtime.Day, recs []Record) []byte {
	t.Helper()
	snap := &Snapshot{Day: day, Records: append([]Record(nil), recs...)}
	snap.Canonicalize()
	var buf bytes.Buffer
	if err := snap.WriteArchiveSection(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestSpillWriterByteIdentity drives the spill writer across budgets that
// force zero, some, and many runs, asserting the streamed section bytes
// equal the in-RAM canonicalize path exactly.
func TestSpillWriterByteIdentity(t *testing.T) {
	day := simtime.Date(2016, 12, 31)
	recs := fakeRecords(500, 7)
	want := oracleSection(t, day, recs)

	for _, budget := range []int64{1, 64, 1 << 10, 16 << 10, 1 << 30} {
		sw := NewSpillWriter(day, SpillOptions{Dir: t.TempDir(), MemBudget: budget})
		// Append in awkward batch sizes to exercise batch boundaries.
		for lo := 0; lo < len(recs); lo += 7 {
			hi := lo + 7
			if hi > len(recs) {
				hi = len(recs)
			}
			if err := sw.Append(recs[lo:hi]...); err != nil {
				t.Fatalf("budget %d: %v", budget, err)
			}
		}
		if sw.Len() != len(recs) {
			t.Fatalf("budget %d: Len = %d, want %d", budget, sw.Len(), len(recs))
		}
		var got bytes.Buffer
		if err := sw.WriteSectionTo(&got); err != nil {
			t.Fatalf("budget %d: %v", budget, err)
		}
		if !bytes.Equal(got.Bytes(), want) {
			t.Fatalf("budget %d (%d runs): section bytes differ from in-RAM path", budget, sw.Runs())
		}
		if budget == 1 && sw.Runs() < 2 {
			t.Fatalf("budget 1 spilled only %d runs; the merge path is untested", sw.Runs())
		}
		// The merge must be re-runnable until Close.
		var again bytes.Buffer
		if err := sw.WriteSectionTo(&again); err != nil {
			t.Fatalf("budget %d: second merge: %v", budget, err)
		}
		if !bytes.Equal(again.Bytes(), want) {
			t.Fatalf("budget %d: second merge diverged", budget)
		}
		if err := sw.Close(); err != nil {
			t.Fatalf("budget %d: Close: %v", budget, err)
		}
	}
}

// TestSpillWriterSectionParses round-trips a spilled section through the
// strict archive reader.
func TestSpillWriterSectionParses(t *testing.T) {
	day := simtime.Date(2016, 6, 1)
	recs := fakeRecords(200, 3)
	sw := NewSpillWriter(day, SpillOptions{Dir: t.TempDir(), MemBudget: 256})
	if err := sw.Append(recs...); err != nil {
		t.Fatal(err)
	}
	defer sw.Close()
	var buf bytes.Buffer
	if err := sw.WriteSectionTo(&buf); err != nil {
		t.Fatal(err)
	}
	store, err := ReadArchiveStrict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	snap := store.Get(day)
	if snap == nil || len(snap.Records) != len(recs) {
		t.Fatalf("round trip lost records: %v", snap)
	}
}

// TestSpillWriterEachSorted checks the record-level merge view agrees
// with the canonical order and parses every field back.
func TestSpillWriterEachSorted(t *testing.T) {
	day := simtime.Date(2016, 6, 1)
	recs := fakeRecords(120, 11)
	sw := NewSpillWriter(day, SpillOptions{Dir: t.TempDir(), MemBudget: 128})
	if err := sw.Append(recs...); err != nil {
		t.Fatal(err)
	}
	defer sw.Close()

	want := &Snapshot{Day: day, Records: append([]Record(nil), recs...)}
	want.Canonicalize()
	i := 0
	err := sw.EachSorted(func(r *Record) error {
		w := &want.Records[i]
		if r.Domain != w.Domain || r.TLD != w.TLD || r.Failed != w.Failed || r.HasDNSKEY != w.HasDNSKEY {
			return fmt.Errorf("record %d: got %+v want %+v", i, r, w)
		}
		i++
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if i != len(recs) {
		t.Fatalf("EachSorted yielded %d records, want %d", i, len(recs))
	}
}

// TestSpillWriterCleanup asserts Close removes every run file.
func TestSpillWriterCleanup(t *testing.T) {
	dir := t.TempDir()
	day := simtime.Date(2016, 6, 1)
	sw := NewSpillWriter(day, SpillOptions{Dir: dir, MemBudget: 1})
	if err := sw.Append(fakeRecords(50, 1)...); err != nil {
		t.Fatal(err)
	}
	if sw.Runs() == 0 {
		t.Fatal("expected spilled runs")
	}
	if err := sw.Close(); err != nil {
		t.Fatal(err)
	}
	left, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		t.Fatal(err)
	}
	if len(left) != 0 {
		t.Fatalf("run files left behind: %v", left)
	}
}

// TestArchiveWriterByteIdentity streams a multi-day archive — two keys and
// their keyed sections, from spilled runs — and holds it byte-for-byte to
// the same days keyed from memory, and its decode to the days' records.
func TestArchiveWriterByteIdentity(t *testing.T) {
	days := sweptDays(keyEvery+3, 300)
	dir := t.TempDir()
	gotPath := filepath.Join(dir, "got.tsv")
	aw, err := NewArchiveWriter(gotPath)
	if err != nil {
		t.Fatal(err)
	}
	for i, snap := range days {
		sw := NewSpillWriter(snap.Day, SpillOptions{Dir: dir, MemBudget: 4096})
		recs := slices.Clone(snap.Records)
		rand.New(rand.NewSource(int64(i))).Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
		if err := sw.Append(recs...); err != nil {
			t.Fatal(err)
		}
		if sw.Runs() == 0 {
			t.Fatalf("%s: the spill writer spilled no run", snap.Day)
		}
		if err := aw.Section(sw); err != nil {
			t.Fatal(err)
		}
		sw.Close()
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}

	got := archivetest.Read(t, gotPath)
	if !bytes.Equal(got, keyedArchive(t, days...)) {
		t.Fatal("streamed archive differs from the same days keyed from memory")
	}
	for i, member := range archivetest.Members(t, got) {
		header, _, _ := bytes.Cut(archivetest.Zcat(t, member), []byte("\n"))
		if keyed := bytes.Contains(header, []byte("\tkey=")); keyed != (i%keyEvery != 0) {
			t.Errorf("section %d: header %q", i, header)
		}
	}
	store, report, err := ReadArchive(bytes.NewReader(got))
	if err != nil || !report.Clean() || store.Len() != len(days) {
		t.Fatalf("%v, %s, %d day(s)", err, report, store.Len())
	}
	for _, want := range days {
		if got := store.Get(want.Day); !reflect.DeepEqual(got, want) {
			t.Errorf("%s: decoded records differ from the day's", want.Day)
		}
	}
	if len(got) >= len(archivetest.Archive(t, days...)) {
		t.Errorf("keyed archive %d bytes, no smaller than its days self-contained", len(got))
	}
}

// TestArchiveWriterDayOrder rejects out-of-order and duplicate days.
func TestArchiveWriterDayOrder(t *testing.T) {
	dir := t.TempDir()
	aw, err := NewArchiveWriter(filepath.Join(dir, "a.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	defer aw.Abort()
	d2 := simtime.Date(2016, 9, 1)
	d1 := simtime.Date(2016, 6, 1)
	if err := aw.Snapshot(&Snapshot{Day: d2}); err != nil {
		t.Fatal(err)
	}
	if err := aw.Snapshot(&Snapshot{Day: d1}); err == nil {
		t.Fatal("out-of-order day accepted")
	}
	if err := aw.Snapshot(&Snapshot{Day: d2}); err == nil {
		t.Fatal("duplicate day accepted")
	}
}

// TestArchiveWriterAbort leaves the previous archive untouched.
func TestArchiveWriterAbort(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "a.tsv")
	if err := os.WriteFile(path, []byte("old"), 0o644); err != nil {
		t.Fatal(err)
	}
	aw, err := NewArchiveWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := aw.Snapshot(&Snapshot{Day: simtime.Date(2016, 6, 1)}); err != nil {
		t.Fatal(err)
	}
	aw.Abort()
	data, err := os.ReadFile(path)
	if err != nil || string(data) != "old" {
		t.Fatalf("abort clobbered the previous archive: %q %v", data, err)
	}
	left, _ := filepath.Glob(filepath.Join(dir, ".*tmp*"))
	if len(left) != 0 {
		t.Fatalf("temp files left behind: %v", left)
	}
}

// Snapshot writes one in-RAM snapshot as a section (canonicalizing it),
// keyed as Section keys one, for tests mixing in-RAM and streamed days.
func (aw *ArchiveWriter) Snapshot(snap *Snapshot) error {
	if err := aw.checkDay(snap.Day); err != nil {
		return err
	}
	snap.Canonicalize()
	return aw.keys.section(aw.f.bw, aw.f.offset(), snap.Day, len(snap.Records), func(emit func(line []byte) error) error {
		return eachLine(snap.Records, emit)
	})
}
