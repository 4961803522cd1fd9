package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
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

// textSection renders one section's text: what zcat prints of its member.
func textSection(t *testing.T, s *Snapshot) []byte {
	t.Helper()
	return archivetest.Zcat(t, archivetest.Archive(t, s))
}

// tailPieces are the pieces the tail tests write an archive of: sections
// of days 10 to 12, day 10's with a byte of its member header flipped (so no
// member starts there),
// day 11's text with a byte of its first record flipped and with its second
// record replaced by a line that is none, both deflated again.
type tailPieces struct{ s10, s11, s12, corrupt, changed, badRecord []byte }

func newTailPieces(t *testing.T) tailPieces {
	p := tailPieces{s10: archivetest.Archive(t, tailSnap(10, 3)), s11: archivetest.Archive(t, tailSnap(11, 2)), s12: archivetest.Archive(t, tailSnap(12, 3))}
	p.corrupt = bytes.Clone(p.s10)
	p.corrupt[1] ^= 0x20
	text := textSection(t, tailSnap(11, 2))
	text[bytes.IndexByte(text, '\n')+2] ^= 0x20
	p.changed = archivetest.Deflate(text)
	lines := bytes.SplitAfter(textSection(t, tailSnap(11, 3)), []byte("\n"))
	lines[2] = []byte("not a record\n")
	p.badRecord = archivetest.Deflate(bytes.Join(lines, nil))
	return p
}

const stray = "bytes outside any gzip member"

// sectionOf is how checkTailEvents names a section that verifies.
func sectionOf(d simtime.Day) string { return "section of " + d.String() }

// checkTailEvents writes an archive of pieces and requires a tail scan to
// read it as one event a piece, as events names them — a section that
// verifies (sectionOf) or damage, for its reason, located at the piece's
// first byte — and to consume up to the last event's end: pieces past the
// events must stay pending. Resumed from any event's end, the last's too,
// the scan reads exactly the events after it, damage located alike. And
// with nothing pending, ReadArchive salvages and quarantines what the scan
// does.
func checkTailEvents(t *testing.T, pieces [][]byte, events ...string) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "a.archive")
	archivetest.Append(t, path, pieces...)
	ends := make([]int64, len(pieces))
	at := func(k int) int64 { // where piece k starts
		if k == 0 {
			return 0
		}
		return ends[k-1]
	}
	for k, p := range pieces {
		ends[k] = at(k) + int64(len(p))
	}
	consumed := ends[len(events)-1]
	var days, damage []string
	for from := range len(events) + 1 {
		res, err := TailArchive(path, at(from))
		if err != nil || len(res.Events) != len(events)-from || res.Offset != consumed {
			t.Fatalf("from byte %d: %v, events %+v to offset %d; want %d event(s) to offset %d",
				at(from), err, res.Events, res.Offset, len(events)-from, consumed)
		}
		for i, ev := range res.Events {
			k, what := from+i, "damage elsewhere"
			switch {
			case ev.Snap != nil:
				what = sectionOf(ev.Snap.Day)
			case ev.Damage.Offset == at(k):
				what = ev.Damage.Reason
			}
			if what != events[k] || ev.End != ends[k] {
				t.Errorf("from byte %d: event %d is %q to byte %d, want %q to byte %d", at(from), k, what, ev.End, events[k], ends[k])
			}
			if from == 0 && ev.Snap != nil {
				days = append(days, what)
			} else if from == 0 {
				damage = append(damage, what)
			}
		}
	}
	if len(events) < len(pieces) {
		return // TestEndOfInputStates holds ReadArchive to what is pending
	}
	store, report, err := ReadArchive(bytes.NewReader(slices.Concat(pieces...)))
	var readDays, readDamage []string
	for _, d := range store.Days() {
		readDays = append(readDays, sectionOf(d))
	}
	for _, q := range report.Quarantined {
		readDamage = append(readDamage, q.Reason)
	}
	if err != nil || !reflect.DeepEqual(readDays, days) || !reflect.DeepEqual(readDamage, damage) {
		t.Errorf("ReadArchive read %q and quarantined %q (%v); the tail scan %q and %q", readDays, readDamage, err, days, damage)
	}
}

// TestTailConsumesCompleteSections: complete sections are consumed, and a
// second poll from the resume offset sees nothing new.
func TestTailConsumesCompleteSections(t *testing.T) {
	p := newTailPieces(t)
	checkTailEvents(t, [][]byte{p.s10, p.s11}, sectionOf(10), sectionOf(11))
}

// TestTailTornSuperseded: a member abandoned part-way, its decoder wanting
// bytes the next member holds, becomes final damage the moment a newer
// member follows it.
func TestTailTornSuperseded(t *testing.T) {
	p := newTailPieces(t)
	checkTailEvents(t, [][]byte{p.s10[:len(memberHeader)+2], p.s11}, "damaged gzip member runs into the next section", sectionOf(11))
}

// TestTailCorruptSection: a member damaged at rest is quarantined and
// consumed — damage at rest is final.
func TestTailCorruptSection(t *testing.T) {
	p := newTailPieces(t)
	checkTailEvents(t, [][]byte{p.corrupt, p.s11}, stray, sectionOf(11))
}

// TestTailStrayBytes: garbage between sections is consumed and reported
// once, and the sections around it still verify.
func TestTailStrayBytes(t *testing.T) {
	p := newTailPieces(t)
	checkTailEvents(t, [][]byte{p.s10, []byte("not\ta\trecord\nmore junk\n\n"), p.s11}, sectionOf(10), stray, sectionOf(11))
}

// TestTailLeavesGrowingSection: a trailing section with no trailer yet is
// not consumed — the writer may still be appending — and is picked up
// whole once its trailer lands.
func TestTailLeavesGrowingSection(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	s1 := archivetest.Archive(t, tailSnap(10, 3))
	s2 := archivetest.Archive(t, tailSnap(11, 4))
	for cut := 1; cut < len(s2); cut++ {
		os.Remove(path)
		archivetest.Append(t, path, s1, s2[:cut])
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
		archivetest.Append(t, path, s2[cut:])
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

// TestTailTruncatedArchive: an archive smaller than the resume offset is
// a rotation/rewrite, not a tail — the caller must reset.
func TestTailTruncatedArchive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	archivetest.Append(t, path, archivetest.Archive(t, tailSnap(10, 2)))
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
	p := newTailPieces(t)
	corrupt := bytes.Clone(p.s11)
	corrupt[1] ^= 0x20 // the gzip magic: no member starts here
	// The damaged member and the stray line after it are one stray run.
	checkTailEvents(t, [][]byte{p.s10, slices.Concat(corrupt, []byte("stray line\n")), p.s12}, sectionOf(10), stray, sectionOf(12))
}

// TestTailStrayAtEOFStaysPending: a stray run nothing has superseded yet
// must not be consumed — the committed cursor may only cover finalized
// events, or a resumed scan would double-count the damage. A section
// header finalizes the stray run on the next poll.
func TestTailStrayAtEOFStaysPending(t *testing.T) {
	p := newTailPieces(t)
	checkTailEvents(t, [][]byte{p.s10, []byte("junk line\n")}, sectionOf(10))
	checkTailEvents(t, [][]byte{p.s10, []byte("junk line\n"), p.s11}, sectionOf(10), stray, sectionOf(11))
}

// TestTailEventOffsetsAreResumePoints: resuming a scan from any event's
// End yields exactly the events after it — the property that makes a
// cursor committed mid-batch equivalent to one committed at the end.
func TestTailEventOffsetsAreResumePoints(t *testing.T) {
	p := newTailPieces(t)
	checkTailEvents(t, [][]byte{p.s10, p.changed, []byte("stray\n"), p.s12},
		// Before front coding the checksums were trailer 8b2da9ec, section 003a927f.
		sectionOf(10), "checksum mismatch: trailer 26f60bae, section 1400e002", stray, sectionOf(12))
}

// TestDamageLocatedAlikeFromAnyStart: a member with a bad record is
// reported at the same absolute offset for the same reason — the record
// named by its position in the section — wherever the scan started.
func TestDamageLocatedAlikeFromAnyStart(t *testing.T) {
	p := newTailPieces(t)
	checkTailEvents(t, [][]byte{p.s10, p.badRecord}, sectionOf(10), "record 2: 1 fields, want 2–6")
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
		// Each name ends in a hash of it, which front coding and deflate
		// leave about 4 B a record: tailSnap's deflate to a fifth of that.
		snap := tailSnap(day, 6000)
		for i := range snap.Records {
			r := &snap.Records[i]
			r.Domain = fmt.Sprintf("d%05d-%08x.com", i, crc32.ChecksumIEEE([]byte(r.Domain)))
		}
		archive.Write(archivetest.Archive(t, snap))
		ends = append(ends, int64(archive.Len()))
	}
	if archive.Len() < 4*scanBufSize {
		t.Fatalf("an archive of %d bytes is too small against a %d-byte buffer to show anything", archive.Len(), scanBufSize)
	}
	in := &countingReader{r: &archive}
	sc := newSectionScanner(in, 0, nil)
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
	s1 := string(archivetest.Archive(t, tailSnap(10, 2)))
	member := string(archivetest.Archive(t, tailSnap(11, 2)))
	s2 := string(archivetest.Zcat(t, []byte(member)))
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
			archivetest.Append(t, path, []byte(s1+tc.tail))
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
	archivetest.Append(t, path, text)
	if _, err := TailArchive(path, 0); !errors.Is(err, ErrTextArchive) {
		t.Errorf("TailArchive: %v, want ErrTextArchive", err)
	}
	member := archivetest.Archive(t, tailSnap(11, 2))
	store, report, err := ReadArchive(bytes.NewReader(slices.Concat(member, text)))
	if err != nil || store.Len() != 1 || len(report.Quarantined) != 1 || report.Quarantined[0].Offset != int64(len(member)) {
		t.Errorf("a member, then text: %v, %d snapshot(s), %s", err, store.Len(), report)
	}
}

// BenchmarkArchiveScan is the one reader's throughput over 20 days of a
// daily sweep of 5,000 domains (sweptDays), written as self-contained
// sections and as an ArchiveWriter keys them: scan the archive and discard
// the events. Besides bytes/s, which reads lower for the smaller keyed
// archive at the same speed, it reports records/s.
func BenchmarkArchiveScan(b *testing.B) {
	days := sweptDays(20, 5000)
	records := 0
	for _, snap := range days {
		records += len(snap.Records)
	}
	for _, form := range []struct {
		name    string
		archive []byte
	}{
		{"self-contained", archivetest.Archive(b, days...)},
		{"keyed", keyedArchive(b, days...)},
	} {
		b.Run(form.name, func(b *testing.B) {
			b.SetBytes(int64(len(form.archive)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				sc := newSectionScanner(bytes.NewReader(form.archive), 0, nil)
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
				if sections != len(days) {
					b.Fatalf("%d sections, want %d", sections, len(days))
				}
			}
			b.ReportMetric(float64(records)*float64(b.N)/b.Elapsed().Seconds(), "records/s")
		})
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
