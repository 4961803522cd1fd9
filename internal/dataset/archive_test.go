package dataset

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/simtime"
)

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
	var buf bytes.Buffer
	if err := store.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	return store, buf.Bytes()
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
	_, raw := archiveFixture(t)
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
	// A cut landing mid-record reports the truncation precisely.
	midRecord := raw[:bytes.Index(raw, []byte("#end\t2016-06-01"))-5]
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
	_, raw := archiveFixture(t)
	// Drop the first section's trailer line: a torn write that left the
	// next section's header right after the records.
	lines := strings.SplitAfter(string(raw), "\n")
	var torn strings.Builder
	for _, l := range lines {
		if strings.HasPrefix(l, "#end\t2016-01-01") {
			continue
		}
		torn.WriteString(l)
	}
	got, report, err := ReadArchive(strings.NewReader(torn.String()))
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
	var buf bytes.Buffer
	if err := store.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	double := append(bytes.Clone(buf.Bytes()), buf.Bytes()...)
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
