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

	"securepki.org/registrarsec/internal/simtime"
)

// tailSnap builds a valid snapshot for archive writing, its records in
// canonical order.
func tailSnap(day simtime.Day, n int) *Snapshot {
	s := &Snapshot{Day: day}
	for i := 0; i < n; i++ {
		s.Records = append(s.Records, Record{
			Domain: fmt.Sprintf("d%05d-%d.com", i, day), TLD: "com",
			Operator: "op.example", NSHosts: []string{"ns1.op.example"},
			HasDNSKEY: i%2 == 0, HasRRSIG: i%2 == 0,
		})
	}
	return s
}

// sectionBytes renders one trailered section.
func sectionBytes(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := s.WriteArchiveSection(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// textSection renders one section's text: what zcat prints of
// sectionBytes, and what a member holds.
func textSection(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	return textOf(sectionBytes(t, s))
}

func writeTail(t *testing.T, path string, chunks ...[]byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			t.Fatal(err)
		}
	}
}

func TestTailConsumesCompleteSections(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	s1, s2 := sectionBytes(t, tailSnap(10, 3)), sectionBytes(t, tailSnap(11, 2))
	writeTail(t, path, s1, s2)

	res, err := TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshotsOf(res)) != 2 || len(res.Quarantined()) != 0 {
		t.Fatalf("got %d snapshots, %d quarantined, want 2/0", len(snapshotsOf(res)), len(res.Quarantined()))
	}
	if snapshotsOf(res)[0].Day != 10 || snapshotsOf(res)[1].Day != 11 {
		t.Fatalf("days %v/%v, want 10/11", snapshotsOf(res)[0].Day, snapshotsOf(res)[1].Day)
	}
	if want := int64(len(s1) + len(s2)); res.Offset != want {
		t.Fatalf("Offset %d, want %d", res.Offset, want)
	}

	// A second poll from the resume offset sees nothing new.
	res2, err := TailArchive(path, res.Offset)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshotsOf(res2)) != 0 || res2.Offset != res.Offset {
		t.Fatalf("re-poll consumed %d snapshots, offset %d→%d", len(snapshotsOf(res2)), res.Offset, res2.Offset)
	}
}

// TestTailLeavesGrowingSection: a trailing section with no trailer yet is
// not consumed — the writer may still be appending — and is picked up
// whole once its trailer lands.
func TestTailLeavesGrowingSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	s1 := sectionBytes(t, tailSnap(10, 3))
	s2 := sectionBytes(t, tailSnap(11, 4))
	for cut := 1; cut < len(s2); cut++ {
		os.Remove(path)
		writeTail(t, path, s1, s2[:cut])
		res, err := TailArchive(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(snapshotsOf(res)) != 1 || len(res.Quarantined()) != 0 {
			t.Fatalf("cut %d: got %d snapshots, %d quarantined, want 1/0", cut, len(snapshotsOf(res)), len(res.Quarantined()))
		}
		if res.Offset != int64(len(s1)) {
			t.Fatalf("cut %d: Offset %d, want %d (partial section must stay unconsumed)", cut, res.Offset, len(s1))
		}
		// The rest of the section arrives; the next poll consumes it.
		writeTail(t, path, s2[cut:])
		res2, err := TailArchive(path, res.Offset)
		if err != nil {
			t.Fatal(err)
		}
		if len(snapshotsOf(res2)) != 1 || snapshotsOf(res2)[0].Day != 11 || len(snapshotsOf(res2)[0].Records) != 4 {
			t.Fatalf("cut %d: completed section not consumed on re-poll: %+v", cut, res2)
		}
		if res2.Offset != int64(len(s1)+len(s2)) {
			t.Fatalf("cut %d: final Offset %d, want %d", cut, res2.Offset, len(s1)+len(s2))
		}
	}
}

// TestTailTornSuperseded: a member abandoned part-way, its decoder wanting
// bytes the next member holds, becomes final damage the moment a newer
// member follows it.
func TestTailTornSuperseded(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	s1 := sectionBytes(t, tailSnap(10, 3))
	torn := s1[:len(memberHeader)+2]
	s2 := sectionBytes(t, tailSnap(11, 2))
	writeTail(t, path, torn, s2)

	res, err := TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshotsOf(res)) != 1 || snapshotsOf(res)[0].Day != 11 {
		t.Fatalf("snapshots %+v, want just day 11", snapshotsOf(res))
	}
	if q := res.Quarantined(); len(q) != 1 || q[0].Offset != 0 || q[0].Reason != "damaged gzip member runs into the next section" {
		t.Fatalf("quarantined %+v, want the torn member at byte 0", q)
	}
	if res.Offset != int64(len(torn)+len(s2)) {
		t.Fatalf("Offset %d, want %d (torn section must be consumed once superseded)", res.Offset, len(torn)+len(s2))
	}
}

// TestTailCorruptSection: a section whose bytes no longer hash to its
// trailer is quarantined and consumed — damage at rest is final.
func TestTailCorruptSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	s1 := sectionBytes(t, tailSnap(10, 3))
	corrupt := append([]byte(nil), s1...)
	corrupt[bytes.IndexByte(corrupt, '\n')+2] ^= 0x20 // flip a record byte
	s2 := sectionBytes(t, tailSnap(11, 2))
	writeTail(t, path, corrupt, s2)

	res, err := TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshotsOf(res)) != 1 || snapshotsOf(res)[0].Day != 11 {
		t.Fatalf("snapshots %+v, want just day 11", snapshotsOf(res))
	}
	if len(res.Quarantined()) != 1 {
		t.Fatalf("quarantined %+v, want one entry", res.Quarantined())
	}
	if res.Offset != int64(len(corrupt)+len(s2)) {
		t.Fatalf("Offset %d, want %d", res.Offset, len(corrupt)+len(s2))
	}
}

// TestTailStrayBytes: garbage between sections is consumed and reported
// once, and the sections around it still verify.
func TestTailStrayBytes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	s1 := sectionBytes(t, tailSnap(10, 2))
	stray := []byte("not\ta\trecord\nmore junk\n\n")
	s2 := sectionBytes(t, tailSnap(11, 2))
	writeTail(t, path, s1, stray, s2)

	res, err := TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshotsOf(res)) != 2 {
		t.Fatalf("got %d snapshots, want 2", len(snapshotsOf(res)))
	}
	if len(res.Quarantined()) != 1 {
		t.Fatalf("quarantined %+v, want one stray-run entry", res.Quarantined())
	}
	if res.Offset != int64(len(s1)+len(stray)+len(s2)) {
		t.Fatalf("Offset %d, want %d", res.Offset, len(s1)+len(stray)+len(s2))
	}
}

// TestTailTruncatedArchive: an archive smaller than the resume offset is
// a rotation/rewrite, not a tail — the caller must reset.
func TestTailTruncatedArchive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	writeTail(t, path, sectionBytes(t, tailSnap(10, 2)))
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := TailArchive(path, st.Size()+1); !errors.Is(err, ErrTailTruncated) {
		t.Fatalf("TailArchive past EOF = %v, want ErrTailTruncated", err)
	}
	if _, err := TailArchive(path, -1); err == nil {
		t.Fatal("negative offset should error")
	}
}

// TestTailMatchesReadArchive: over a finished archive (mixed damage, no
// open tail) the tail scanner and the batch salvage reader agree on what
// is intact and what is quarantined.
func TestTailMatchesReadArchive(t *testing.T) {
	s1 := sectionBytes(t, tailSnap(10, 3))
	corrupt := append([]byte(nil), sectionBytes(t, tailSnap(11, 2))...)
	corrupt[bytes.IndexByte(corrupt, '\n')+2] ^= 0x20
	s3 := sectionBytes(t, tailSnap(12, 1))
	archive := bytes.Join([][]byte{s1, corrupt, []byte("stray line\n"), s3}, nil)

	path := filepath.Join(t.TempDir(), "a.archive")
	writeTail(t, path, archive)
	res, err := TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	store, report, err := ReadArchive(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshotsOf(res)) != len(store.Days()) {
		t.Fatalf("tail salvaged %d sections, batch reader %d", len(snapshotsOf(res)), len(store.Days()))
	}
	for _, snap := range snapshotsOf(res) {
		got := store.Get(snap.Day)
		if got == nil || len(got.Records) != len(snap.Records) {
			t.Fatalf("day %v: tail and batch reader disagree", snap.Day)
		}
	}
	if len(res.Quarantined()) != len(report.Quarantined) {
		t.Fatalf("tail quarantined %d, batch reader %d:\n%v\nvs\n%v",
			len(res.Quarantined()), len(report.Quarantined), res.Quarantined(), report.Quarantined)
	}
	if res.Offset != int64(len(archive)) {
		t.Fatalf("Offset %d, want %d", res.Offset, len(archive))
	}
}

// TestTailStrayAtEOFStaysPending: a stray run nothing has superseded yet
// must not be consumed — the committed cursor may only cover finalized
// events, or a resumed scan would double-count the damage.
func TestTailStrayAtEOFStaysPending(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	s1 := sectionBytes(t, tailSnap(10, 2))
	writeTail(t, path, s1, []byte("junk line\n"))

	res, err := TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshotsOf(res)) != 1 || len(res.Quarantined()) != 0 {
		t.Fatalf("got %d snapshots, %d quarantined, want 1/0", len(snapshotsOf(res)), len(res.Quarantined()))
	}
	if res.Offset != int64(len(s1)) {
		t.Fatalf("Offset %d, want %d (pending stray run must stay unconsumed)", res.Offset, len(s1))
	}
	// A section header finalizes the stray run on the next poll.
	s2 := sectionBytes(t, tailSnap(11, 1))
	writeTail(t, path, s2)
	res2, err := TailArchive(path, res.Offset)
	if err != nil {
		t.Fatal(err)
	}
	if len(snapshotsOf(res2)) != 1 || len(res2.Quarantined()) != 1 {
		t.Fatalf("got %d snapshots, %d quarantined after supersession, want 1/1", len(snapshotsOf(res2)), len(res2.Quarantined()))
	}
}

// TestTailEventOffsetsAreResumePoints: resuming a scan from any event's
// End yields exactly the events after it — the property that makes a
// cursor committed mid-batch equivalent to one committed at the end.
func TestTailEventOffsetsAreResumePoints(t *testing.T) {
	s1 := sectionBytes(t, tailSnap(10, 2))
	text := textSection(t, tailSnap(11, 2))
	text[bytes.IndexByte(text, '\n')+2] ^= 0x20
	corrupt := memberOf(text)
	s3 := sectionBytes(t, tailSnap(12, 3))
	path := filepath.Join(t.TempDir(), "a.archive")
	writeTail(t, path, s1, corrupt, []byte("stray\n"), s3)

	full, err := TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(full.Events) != 4 { // s1, corrupt, stray, s3
		t.Fatalf("got %d events, want 4: %+v", len(full.Events), full.Events)
	}
	for i, ev := range full.Events {
		res, err := TailArchive(path, ev.End)
		if err != nil {
			t.Fatalf("resume at event %d (offset %d): %v", i, ev.End, err)
		}
		if len(res.Events) != len(full.Events)-i-1 {
			t.Fatalf("resume at event %d: got %d events, want %d", i, len(res.Events), len(full.Events)-i-1)
		}
		for j, got := range res.Events {
			want := full.Events[i+1+j]
			if got.End != want.End || (got.Snap == nil) != (want.Snap == nil) {
				t.Fatalf("resume at event %d, event %d: got %+v, want %+v", i, j, got, want)
			}
		}
	}
}

// TestDamageLocatedAlikeFromAnyStart: a member with a bad record is
// reported at the same absolute offset for the same reason — the record
// named by its position in the section — wherever the scan started.
func TestDamageLocatedAlikeFromAnyStart(t *testing.T) {
	s1 := sectionBytes(t, tailSnap(10, 2))
	lines := bytes.SplitAfter(textSection(t, tailSnap(11, 3)), []byte("\n"))
	lines[2] = []byte("not a record\n")
	path := filepath.Join(t.TempDir(), "a.archive")
	writeTail(t, path, s1, memberOf(bytes.Join(lines, nil)))

	for _, from := range []int64{0, int64(len(s1))} {
		res, err := TailArchive(path, from)
		if err != nil {
			t.Fatal(err)
		}
		q := res.Quarantined()
		if len(q) != 1 || q[0].Offset != int64(len(s1)) || !strings.HasPrefix(q[0].Reason, "record 2: ") {
			t.Fatalf("scan from %d quarantined %+v, want record 2 of the section at byte %d", from, q, len(s1))
		}
	}
}

// countingReader counts the bytes it has handed over.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// TestScannerStreams: the scanner reads no further ahead than its buffer.
// Each event comes back once the reader has handed over that member and at
// most one buffer more — never the archive.
func TestScannerStreams(t *testing.T) {
	var archive bytes.Buffer
	var ends []int64
	for day := simtime.Day(10); day < 60; day++ {
		archive.Write(sectionBytes(t, tailSnap(day, 10000)))
		ends = append(ends, int64(archive.Len()))
	}
	if archive.Len() < 4*scanBufSize {
		t.Fatalf("an archive of %d bytes is too small against a %d-byte buffer to show anything", archive.Len(), scanBufSize)
	}
	in := &countingReader{r: &archive}
	sc := newSectionScanner(in, 0)
	for i, end := range ends {
		ev, err := sc.next()
		if err != nil || ev.Snap == nil || ev.End != end {
			t.Fatalf("event %d: %+v, %v; want a snapshot ending at %d", i, ev, err, end)
		}
		if in.n > ev.End+scanBufSize {
			t.Fatalf("event %d ends at %d, the reader has handed over %d bytes: more than one buffer ahead", i, ev.End, in.n)
		}
	}
	if _, err := sc.next(); err != io.EOF {
		t.Fatalf("after the last section: %v, want io.EOF", err)
	}
}

// TestEndOfInputStates: whatever the input ends in, the bytes TailArchive
// leaves unconsumed are the bytes ReadArchive quarantines last, for
// ReadArchive's reasons — one scanner decides both. Text after the last
// member, whatever it holds, is a stray run nothing has superseded yet.
func TestEndOfInputStates(t *testing.T) {
	s1 := string(sectionBytes(t, tailSnap(10, 2)))
	member := string(sectionBytes(t, tailSnap(11, 2)))
	s2 := string(textOf([]byte(member)))
	header, rest, _ := strings.Cut(s2, "\n")
	record, _, _ := strings.Cut(rest, "\n")
	trailer := s2[strings.LastIndex(s2, trailerHeader):]
	const stray = "bytes outside any gzip member"
	for _, tc := range []struct {
		name    string
		tail    string   // what follows one intact section
		final   int      // leading bytes of tail that are final damage, one event
		reasons []string // what ReadArchive makes of the tail, in order
	}{
		{name: "open section", tail: header + "\n" + record + "\n", reasons: []string{stray}},
		{name: "stray run at EOF", tail: "\nstray\n\n", reasons: []string{stray}},
		{name: "partial header", tail: header[:len(header)-3], reasons: []string{stray}},
		{name: "partial record", tail: header + "\n" + record[:len(record)/2], reasons: []string{stray}},
		{name: "partial trailer", tail: s2[:len(s2)-1], reasons: []string{stray}},
		{name: "partial line outside any section", tail: "\n\nstr", reasons: []string{stray}},
		{name: "orphan trailer", tail: trailer, reasons: []string{stray}},
		{name: "torn section before a partial header", tail: header + "\n" + record + "\n" + header[:len(header)-3],
			reasons: []string{stray}},
		{name: "blank lines after the last section", tail: "\n\n", reasons: []string{stray}},
		{name: "partial member", tail: member[:len(member)-1],
			reasons: []string{"truncated gzip member"}},
		{name: "partial member header", tail: member[:5], reasons: []string{stray}},
		{name: "blank line before a partial member", tail: "\n" + member[:len(member)/2], final: 1,
			reasons: []string{stray, "truncated gzip member"}},
		{name: "open section before a partial member header", tail: header + "\n" + record + "\n" + member[:5],
			reasons: []string{stray}},
		{name: "partial member header after a stray line", tail: "stray\n" + member[:5], reasons: []string{stray}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "a.archive")
			writeTail(t, path, []byte(s1+tc.tail))
			res, err := TailArchive(path, 0)
			if err != nil {
				t.Fatal(err)
			}
			events := 1
			if tc.final > 0 {
				events++
			}
			if want := int64(len(s1) + tc.final); len(res.Events) != events || res.Offset != want {
				t.Fatalf("TailArchive: %d event(s) to offset %d, want %d to offset %d", len(res.Events), res.Offset, events, want)
			}
			store, report, err := ReadArchive(strings.NewReader(s1 + tc.tail))
			if err != nil || store.Len() != 1 {
				t.Fatalf("ReadArchive: %v, %d snapshot(s)", err, store.Len())
			}
			var reasons []string
			for _, c := range report.Quarantined {
				reasons = append(reasons, c.Reason)
			}
			if !reflect.DeepEqual(reasons, tc.reasons) {
				t.Fatalf("ReadArchive quarantined %q, want %q", reasons, tc.reasons)
			}
			if undecided := report.Quarantined[events-1]; undecided.Offset != res.Offset {
				t.Fatalf("ReadArchive's undecided damage starts at byte %d, TailArchive stopped at %d", undecided.Offset, res.Offset)
			}
		})
	}
}

// TestTextArchiveRefused: an archive in the text form, as written before
// each section became a gzip member, is refused whole by ReadArchive and
// TailArchive, not salvaged as damage; text that follows a member is a stray
// run.
func TestTextArchiveRefused(t *testing.T) {
	text := textSection(t, tailSnap(10, 2))
	if _, _, err := ReadArchive(bytes.NewReader(text)); !errors.Is(err, ErrTextArchive) {
		t.Errorf("ReadArchive: %v, want ErrTextArchive", err)
	}
	path := filepath.Join(t.TempDir(), "a.archive")
	writeTail(t, path, text)
	if _, err := TailArchive(path, 0); !errors.Is(err, ErrTextArchive) {
		t.Errorf("TailArchive: %v, want ErrTextArchive", err)
	}
	member := sectionBytes(t, tailSnap(11, 2))
	store, report, err := ReadArchive(bytes.NewReader(slices.Concat(member, text)))
	if err != nil || store.Len() != 1 || len(report.Quarantined) != 1 || report.Quarantined[0].Offset != int64(len(member)) {
		t.Errorf("a member, then text: %v, %d snapshot(s), %s", err, store.Len(), report)
	}
}

// BenchmarkArchiveScan is the one reader's throughput: scan a 20-section
// archive and discard the events.
func BenchmarkArchiveScan(b *testing.B) {
	var archive bytes.Buffer
	for day := simtime.Day(10); day < 30; day++ {
		if err := tailSnap(day, 5000).WriteArchiveSection(&archive); err != nil {
			b.Fatal(err)
		}
	}
	b.SetBytes(int64(archive.Len()))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sc := newSectionScanner(bytes.NewReader(archive.Bytes()), 0)
		sections := 0
		for {
			ev, err := sc.next()
			if err == io.EOF {
				break
			}
			if err != nil || ev.Snap == nil {
				b.Fatalf("event %+v, %v", ev, err)
			}
			sections++
		}
		if sections != 20 {
			b.Fatalf("%d sections, want 20", sections)
		}
	}
}

// snapshotsOf returns the verified sections of a tail scan, in file order.
func snapshotsOf(r *TailResult) []*Snapshot {
	var out []*Snapshot
	for _, ev := range r.Events {
		if ev.Snap != nil {
			out = append(out, ev.Snap)
		}
	}
	return out
}

// Quarantined returns the damage entries, in file order.
func (r *TailResult) Quarantined() []Corruption {
	var out []Corruption
	for _, ev := range r.Events {
		if ev.Damage != nil {
			out = append(out, *ev.Damage)
		}
	}
	return out
}
