package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/simtime"
)

// archiveFixture builds a two-day store and its archive bytes.
func archiveFixture(t testing.TB) (*Store, []byte) {
	t.Helper()
	snaps := []*Snapshot{
		{Day: simtime.Date(2016, 1, 1), Records: []Record{
			{Domain: "a.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net", "ns2.op.net"},
				HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true},
			{Domain: "b.com", TLD: "com", Operator: "other.net", NSHosts: []string{"ns1.other.net"}},
			{Domain: "gap.com", TLD: "com", Failed: true, FailReason: "timeout"},
		}},
		{Day: simtime.Date(2016, 6, 1), Records: []Record{
			{Domain: "a.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net"},
				HasDNSKEY: true, HasRRSIG: true},
		}},
	}
	store := NewStore()
	for _, snap := range snaps {
		store.Add(snap)
	}
	return store, archiveOf(t, store)
}

// archiveOf renders store as the sweep writes an archive: a section a day,
// oldest first.
func archiveOf(t testing.TB, store *Store) []byte {
	var snaps []*Snapshot
	for _, day := range store.Days() {
		snaps = append(snaps, store.Get(day))
	}
	return archivetest.Archive(t, snaps...)
}

// checkRoundTrip requires the archive of snaps to read back to their
// records through ReadArchive, clean and with every section counted, and
// ReadArchiveStrict alike; a Failed record without a class reads back as
// "failed".
func checkRoundTrip(t *testing.T, snaps ...*Snapshot) {
	t.Helper()
	raw := archivetest.Archive(t, snaps...)
	got, report, err := ReadArchive(bytes.NewReader(raw))
	if err != nil || !report.Clean() || report.Sections != len(snaps) || got.Len() != len(snaps) {
		t.Fatalf("%v, report %s, %d snapshot(s)", err, report, got.Len())
	}
	strict, err := ReadArchiveStrict(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("strict read of a clean archive: %v", err)
	}
	for _, snap := range snaps {
		want := &Snapshot{Day: snap.Day, Records: slices.Clone(snap.Records)}
		for i := range want.Records {
			if want.Records[i].Failed && want.Records[i].FailReason == "" {
				want.Records[i].FailReason = "failed"
			}
		}
		for reader, store := range map[string]*Store{"ReadArchive": got, "ReadArchiveStrict": strict} {
			read := store.Get(snap.Day)
			if !reflect.DeepEqual(read.Records, want.Records) {
				t.Errorf("%s, day %s: records differ:\n%+v\n%+v", reader, snap.Day, read.Records, want.Records)
			}
			if read.MeasuredCount() != want.MeasuredCount() {
				t.Errorf("%s, day %s: MeasuredCount %d, want %d", reader, snap.Day, read.MeasuredCount(), want.MeasuredCount())
			}
		}
	}
}

func TestArchiveRoundTrip(t *testing.T) {
	store, _ := archiveFixture(t)
	checkRoundTrip(t, store.Get(simtime.Date(2016, 1, 1)), store.Get(simtime.Date(2016, 6, 1)))
}

// TestTSVFailedRecordRoundTrip: a Failed record keeps its class and stays
// unmeasured, one without a class reads back as "failed", and a measured
// one stays measured.
func TestTSVFailedRecordRoundTrip(t *testing.T) {
	checkRoundTrip(t, &Snapshot{Day: simtime.Date(2016, 6, 1), Records: []Record{
		{Domain: "down.com", TLD: "com", Failed: true, FailReason: "timeout"},
		{Domain: "odd.com", TLD: "com", Failed: true}, // no class recorded
		{Domain: "up.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net"}, HasDNSKEY: true},
	}})
}

// TestTSVEmptyNSHostsRoundTrip: strings.Join(nil, ",") writes an empty NS
// field; it must come back as no NS hosts, nil, never [""].
func TestTSVEmptyNSHostsRoundTrip(t *testing.T) {
	checkRoundTrip(t, &Snapshot{Day: simtime.Date(2016, 1, 1), Records: []Record{
		{Domain: "gap.com", TLD: "com", Failed: true, FailReason: "timeout"},
		{Domain: "lame.com", TLD: "com", Operator: ""},
		{Domain: "ok.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net"}},
	}})
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
	first := archivetest.Archive(t, store.Get(simtime.Date(2016, 1, 1)))
	text := archivetest.Zcat(t, raw[len(first):])
	midRecord := slices.Concat(first, archivetest.Deflate(text[:bytes.Index(text, []byte("#end\t2016-06-01"))-5]))
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
	first := archivetest.Archive(t, store.Get(simtime.Date(2016, 1, 1)))
	text := archivetest.Zcat(t, first)
	torn := slices.Concat(archivetest.Deflate(text[:bytes.Index(text, []byte("#end\t2016-01-01"))]), raw[len(first):])
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
	got := archivetest.Read(t, path)
	if want := keyedArchive(t, store.Get(store.Days()[0]), store.Get(store.Days()[1])); !bytes.Equal(got, want) || bytes.Equal(got, raw) {
		t.Error("file content differs from the in-memory keyed archive")
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
	counted := func(body string) string {
		return archivetest.Seal(fmt.Sprintf("#snapshot\t2016-01-01\t%d\n", strings.Count(body, "\n")) + body)
	}
	checkQuarantines(t,
		quarantineCase{"a domain twice", counted("a.com\tns1.op.net\nb.com\tns1.op.net\nb.com\t=0\n"), 0, "record 3: out of order"},
		quarantineCase{"descending", counted("b.com\tns1.op.net\na.com\t=0\n"), 0, "record 2: out of order"},
		quarantineCase{"a later TLD first", counted("a.com\tns1.op.net\na.nl\t=0\nb.com\t=0\n"), 0, "record 3: out of order"},
		quarantineCase{"co.uk after com", counted("b.com\tns1.op.net\na.co.uk\t=0\t\t\tco.uk\n"), 0, "record 2: out of order"},
		quarantineCase{"co.uk after com, by domain", counted("a.com\tns1.op.net\nb.co.uk\t=0\t\t\tco.uk\n"), 0, "record 2: out of order"},
		// In order by the TLD as read back, not by the domain's last label.
		quarantineCase{"ordered", counted("a.co.uk\tns1.op.net\t\t\tco.uk\na.com\t=0\nb.com\t=0\n"), 1, ""},
	)
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
