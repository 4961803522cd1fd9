package dataset

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/simtime"
)

// archiveOf renders store as an archive the way the sweep writes one: one
// WriteArchiveSection per day, oldest first.
func archiveOf(store *Store) []byte {
	var buf bytes.Buffer
	for _, day := range store.Days() {
		if err := store.Get(day).WriteArchiveSection(&buf); err != nil {
			panic(err) // writes to a bytes.Buffer do not fail
		}
	}
	return buf.Bytes()
}

// textOf is what zcat prints of archive bytes: the text of every member,
// in order. Tests that edit a section line by line edit this text, and
// deflate the result back into a member (memberOf).
func textOf(archive []byte) []byte {
	zr, err := gzip.NewReader(bytes.NewReader(archive))
	if err != nil {
		panic(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		panic(err)
	}
	return text
}

// memberOf deflates text into one member with the header writeSection
// writes.
func memberOf(text []byte) []byte {
	var buf bytes.Buffer
	zw := NewMemberWriter(&buf)
	zw.Write(text) // writes to a bytes.Buffer do not fail
	zw.Close()
	return buf.Bytes()
}

// archiveFixture builds a two-day store and its archive bytes.
func archiveFixture(t *testing.T) (*Store, []byte) {
	t.Helper()
	store := NewStore()
	store.Add(&Snapshot{Day: simtime.Date(2016, 1, 1), Records: []Record{
		{Domain: "a.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net", "ns2.op.net"},
			HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true},
		{Domain: "b.com", TLD: "com", Operator: "other.net", NSHosts: []string{"ns1.other.net"}},
		{Domain: "gap.com", TLD: "com", Failed: true, FailReason: "timeout"},
	}})
	store.Add(&Snapshot{Day: simtime.Date(2016, 6, 1), Records: []Record{
		{Domain: "a.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net"},
			HasDNSKEY: true, HasRRSIG: true},
	}})
	return store, archiveOf(store)
}

func TestArchiveRoundTrip(t *testing.T) {
	store, raw := archiveFixture(t)
	got, report, err := ReadArchive(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if !report.Clean() || report.Sections != 2 {
		t.Fatalf("report: %s", report)
	}
	if got.Len() != 2 {
		t.Fatalf("snapshots: %d", got.Len())
	}
	for _, day := range store.Days() {
		if !reflect.DeepEqual(got.Get(day).Records, store.Get(day).Records) {
			t.Errorf("day %s records differ", day)
		}
	}
	// Strict mode agrees on clean input.
	if _, err := ReadArchiveStrict(bytes.NewReader(raw)); err != nil {
		t.Errorf("strict read of clean archive: %v", err)
	}
}

func TestArchiveSalvagesIntactSections(t *testing.T) {
	store, raw := archiveFixture(t)
	// Truncate inside the second section: the first must still be salvaged.
	cut := raw[:len(raw)-10]
	got, report, err := ReadArchive(bytes.NewReader(cut))
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatal("truncated archive reported clean")
	}
	if got.Len() != 1 || got.Get(simtime.Date(2016, 1, 1)) == nil {
		t.Fatalf("salvage kept %d snapshot(s)", got.Len())
	}
	found := false
	for _, c := range report.Quarantined {
		if strings.Contains(c.Reason, "truncated") || strings.Contains(c.Reason, "missing trailer") ||
			strings.Contains(c.Reason, "malformed trailer") {
			found = true
		}
	}
	if !found {
		t.Errorf("no truncation reason in %s", report)
	}
	// A member whose text is cut mid-record reports the truncation
	// precisely.
	first := sectionBytes(t, store.Get(simtime.Date(2016, 1, 1)))
	text := textOf(raw[len(first):])
	midRecord := slices.Concat(first, memberOf(text[:bytes.Index(text, []byte("#end\t2016-06-01"))-5]))
	got2, report2, err := ReadArchive(bytes.NewReader(midRecord))
	if err != nil {
		t.Fatal(err)
	}
	if report2.Clean() || got2.Len() != 1 {
		t.Fatalf("mid-record cut: %s, %d snapshot(s)", report2, got2.Len())
	}
	if r := report2.Quarantined[0].Reason; !strings.Contains(r, "truncated") {
		t.Errorf("mid-record cut reason: %s", r)
	}
	// Strict mode refuses the damaged archive outright.
	if _, err := ReadArchiveStrict(bytes.NewReader(cut)); err == nil {
		t.Error("strict read accepted a truncated archive")
	}
}

func TestArchiveTornWriteDetected(t *testing.T) {
	store, raw := archiveFixture(t)
	// Drop the first section's trailer line from its member's text: a torn
	// section, with the next section after it.
	first := sectionBytes(t, store.Get(simtime.Date(2016, 1, 1)))
	text := textOf(first)
	torn := slices.Concat(memberOf(text[:bytes.Index(text, []byte("#end\t2016-01-01"))]), raw[len(first):])
	got, report, err := ReadArchive(bytes.NewReader(torn))
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() {
		t.Fatal("torn archive reported clean")
	}
	if got.Get(simtime.Date(2016, 1, 1)) != nil {
		t.Error("torn section entered the store")
	}
	if got.Get(simtime.Date(2016, 6, 1)) == nil {
		t.Error("intact section after the tear was not salvaged")
	}
}

// TestArchiveBitFlipAlwaysDetected is the integrity drill: every
// single-byte corruption of the archive must be detected — either
// quarantined, or (for damage outside any surviving section's bytes)
// reported as orphaned content. No flip may silently change what parses.
func TestArchiveBitFlipAlwaysDetected(t *testing.T) {
	store, raw := archiveFixture(t)
	for i := range raw {
		for _, mask := range []byte{0x01, 0xff} {
			mut := bytes.Clone(raw)
			mut[i] ^= mask
			got, report, err := ReadArchive(bytes.NewReader(mut))
			if err != nil {
				t.Fatalf("offset %d mask %#x: %v", i, mask, err)
			}
			if report.Clean() {
				t.Fatalf("offset %d mask %#x (%q -> %q): corruption not detected",
					i, mask, raw[i], mut[i])
			}
			// Whatever was salvaged must match the original content.
			for _, day := range got.Days() {
				want := store.Get(day)
				if want == nil || !reflect.DeepEqual(got.Get(day).Records, want.Records) {
					t.Fatalf("offset %d mask %#x: salvaged day %s has divergent content", i, mask, day)
				}
			}
		}
	}
}

func TestArchiveDuplicateDayQuarantined(t *testing.T) {
	store := NewStore()
	store.Add(&Snapshot{Day: simtime.Date(2016, 1, 1), Records: []Record{
		{Domain: "a.com", TLD: "com"},
	}})
	raw := archiveOf(store)
	double := append(bytes.Clone(raw), raw...)
	got, report, err := ReadArchive(bytes.NewReader(double))
	if err != nil {
		t.Fatal(err)
	}
	if report.Clean() || got.Len() != 1 {
		t.Fatalf("duplicate day: report %s, %d snapshot(s)", report, got.Len())
	}
	if !strings.Contains(report.Quarantined[0].Reason, "duplicate") {
		t.Errorf("reason: %s", report.Quarantined[0].Reason)
	}
}

// TestScanArchiveStreamsSections: ScanArchive hands over the sections
// ReadArchive stores, in file order, and stops at fn's first error.
func TestScanArchiveStreamsSections(t *testing.T) {
	store, raw := archiveFixture(t)
	var days []simtime.Day
	report, err := ScanArchive(bytes.NewReader(raw), func(snap *Snapshot) error {
		if !reflect.DeepEqual(snap.Records, store.Get(snap.Day).Records) {
			t.Errorf("day %s records differ", snap.Day)
		}
		days = append(days, snap.Day)
		return nil
	})
	if err != nil || !report.Clean() || !reflect.DeepEqual(days, store.Days()) {
		t.Fatalf("scan: err %v, report %s, days %v", err, report, days)
	}
	stop := errors.New("stop")
	calls := 0
	if _, err := ScanArchive(bytes.NewReader(raw), func(*Snapshot) error { calls++; return stop }); err != stop || calls != 1 {
		t.Errorf("fn error: err %v after %d call(s), want %v after 1", err, calls, stop)
	}
}

// writeArchiveFile writes the store to path the way production writes an
// archive file: section by section through an ArchiveWriter.
func writeArchiveFile(t *testing.T, store *Store, path string) {
	t.Helper()
	aw, err := NewArchiveWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, day := range store.Days() {
		if err := aw.Snapshot(store.Get(day)); err != nil {
			t.Fatal(err)
		}
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestWriteArchiveFileAtomic(t *testing.T) {
	store, raw := archiveFixture(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "archive.tsv")
	writeArchiveFile(t, store, path)
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, raw) {
		t.Error("file content differs from in-memory archive")
	}
	// Overwrite in place: atomic replacement, no temp litter.
	writeArchiveFile(t, store, path)
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "archive.tsv" {
		t.Errorf("directory not clean after rewrite: %v", entries)
	}
	// And the file re-reads clean.
	rt, report, err := ReadArchiveFile(path)
	if err != nil || !report.Clean() || rt.Len() != store.Len() {
		t.Fatalf("re-read: %v, %s", err, report)
	}
}

func TestSnapshotCanonicalize(t *testing.T) {
	s := &Snapshot{Records: []Record{
		{Domain: "z.org", TLD: "org"},
		{Domain: "b.com", TLD: "com"},
		{Domain: "a.com", TLD: "com"},
	}}
	s.Canonicalize()
	order := []string{"a.com", "b.com", "z.org"}
	for i, want := range order {
		if s.Records[i].Domain != want {
			t.Fatalf("position %d: %s, want %s", i, s.Records[i].Domain, want)
		}
	}
}

// TestWriteFileAtomicLeavesOnlyTheFile: a write that succeeds — through
// the directory fsync whose error is now reported — leaves no temp file,
// replaces the previous contents whole, and a directory that cannot be
// synced is an error, not a silent success.
func TestWriteFileAtomicLeavesOnlyTheFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "state.json")
	for _, body := range []string{"first\n", "second, longer\n"} {
		if err := WriteFileAtomic(path, []byte(body)); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil || string(got) != body {
			t.Fatalf("read back %q, %v; want %q", got, err, body)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "state.json" {
		t.Fatalf("directory holds %v, want only state.json", entries)
	}
	if err := SyncDir(filepath.Join(dir, "missing")); err == nil {
		t.Fatal("SyncDir of a missing directory succeeded")
	}
}

// TestSectionOrder: a section's records ascend strictly by (TLD, domain),
// the TLD as read back. The reader quarantines a section that names a
// domain twice or lists records out of order, and the writer refuses to
// make one, naming the day and the domain.
func TestSectionOrder(t *testing.T) {
	for body, reason := range map[string]string{
		"a.com\tns1.op.net\nb.com\tns1.op.net\nb.com\t=0\n": "record 3: out of order",
		"b.com\tns1.op.net\na.com\t=0\n":                    "record 2: out of order",
		"a.com\tns1.op.net\na.nl\t=0\nb.com\t=0\n":          "record 3: out of order",
		"b.com\tns1.op.net\na.co.uk\t=0\t\t\tco.uk\n":       "record 2: out of order",
		"a.com\tns1.op.net\nb.co.uk\t=0\t\t\tco.uk\n":       "record 2: out of order",
	} {
		count := strings.Count(body, "\n")
		archive := sealed(fmt.Sprintf("#snapshot\t2016-01-01\t%d\n", count) + body)
		if n, reasons := quarantines(t, archive); n != 0 || reasons != reason {
			t.Errorf("%q: %d snapshot(s), quarantined %q, want %q", body, n, reasons, reason)
		}
	}
	// In order by the TLD as read back, not by the domain's last label.
	ordered := sealed("#snapshot\t2016-01-01\t3\na.co.uk\tns1.op.net\t\t\tco.uk\na.com\t=0\nb.com\t=0\n")
	if n, reasons := quarantines(t, ordered); n != 1 || reasons != "" {
		t.Errorf("an ordered section: %d snapshot(s), quarantined %q", n, reasons)
	}

	day := simtime.Date(2016, 1, 1)
	for _, recs := range [][]Record{
		{{Domain: "a.com", TLD: "com"}, {Domain: "a.com", TLD: "com", Failed: true}},
		{{Domain: "b.com", TLD: "com"}, {Domain: "a.com", TLD: "com"}},
	} {
		var buf bytes.Buffer
		err := (&Snapshot{Day: day, Records: recs}).WriteArchiveSection(&buf)
		if err == nil || !strings.Contains(err.Error(), "2016-01-01") || !strings.Contains(err.Error(), "record a.com does not sort after") {
			t.Errorf("writing %+v: %v, want a refusal naming the day and a.com", recs, err)
		}
	}
	// The spill merge sorts what it is given, and refuses a domain twice.
	sw := NewSpillWriter(day, SpillOptions{Dir: t.TempDir(), MemBudget: 1})
	defer sw.Close()
	if err := sw.Append(Record{Domain: "a.com", TLD: "com"}, Record{Domain: "b.com", TLD: "com"}, Record{Domain: "a.com", TLD: "com"}); err != nil {
		t.Fatal(err)
	}
	if err := sw.WriteSectionTo(io.Discard); err == nil || !strings.Contains(err.Error(), "record a.com does not sort after a.com") {
		t.Errorf("merging a.com twice: %v, want a refusal", err)
	}
}
