package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/iotest"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/simtime"
)

// memberSeeds are the member form's seeds of the archive fuzzers: the two
// sections as members cut inside a member and between them, with a byte
// flipped mid-member, with stray bytes between the members, and mixed with
// the text form, which reads no longer, in either order; and the archive
// written before front coding, with the front-coded archive of the same
// records, its text cut inside its first front-coded line, and sealed
// sections of a front-coded line and of markers that name more than the
// name before holds; the archive of self-contained front-coded sections
// written before keyed sections; and keyedSeeds.
func memberSeeds(t testing.TB) [][]byte {
	_, valid := archiveFixture(t)
	first := len(archivetest.Zcat(t, valid)) // not a member boundary: any offset inside the first member
	day1 := archivetest.Archive(t, &Snapshot{Day: simtime.Date(2016, 1, 1), Records: []Record{{Domain: "a.com", TLD: "com"}}})
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/4] ^= 0x01
	plain := archivetest.PlainArchive
	coded := frontCodedPlain(t)
	text := archivetest.Zcat(t, coded)
	header := bytes.IndexByte(text, '\n') + 1
	second := header + bytes.IndexByte(text[header:], '\n') + 1 // the first record is plain
	return [][]byte{
		valid,
		valid[:first%len(valid)],
		valid[:len(valid)-1],
		flipped,
		slices.Concat(day1, []byte("stray\x1f\x8b"), valid),
		slices.Concat(archivetest.Zcat(t, day1), valid),
		slices.Concat(valid, archivetest.Zcat(t, valid)),
		slices.Concat(day1[:len(day1)/2], valid),
		plain,
		coded,
		slices.Concat(plain, coded),
		archivetest.Deflate(text[:second+3]),
		[]byte(archivetest.Seal("#snapshot\t2016-01-01\t2\na.com\t\nBz.com\t\n")), // a.z.com
		[]byte(archivetest.Seal("#snapshot\t2016-01-01\t2\na.com\t\nFb.com\t\n")),
		[]byte(archivetest.Seal("#snapshot\t2016-01-01\t1\nAb.com\t\n")),
		archivetest.FrontArchive,
	}
}

// keyedSeeds are a keyed archive's seeds of the archive fuzzers: intact,
// with a byte flipped in its key and in a keyed section, cut inside a keyed
// section, and after another archive, joined as cat joins them.
func keyedSeeds(t testing.TB) [][]byte {
	_, valid := archiveFixture(t)
	keyed := keyedArchive(t, sweptDays(3, 12)...)
	key := len(archivetest.Members(t, keyed)[0])
	inKey, inKeyed := bytes.Clone(keyed), bytes.Clone(keyed)
	inKey[key/2] ^= 0x04
	inKeyed[key+(len(keyed)-key)/3] ^= 0x04
	return [][]byte{keyed, inKey, inKeyed, keyed[:key+(len(keyed)-key)/2], slices.Concat(valid, keyed)}
}

// frontCodedPlain is archivetest.PlainArchive written again: the same
// records, their domains front-coded.
func frontCodedPlain(t testing.TB) []byte {
	store, err := ReadArchiveStrict(bytes.NewReader(archivetest.PlainArchive))
	if err != nil {
		t.Fatal(err)
	}
	coded := archiveOf(t, store)
	if bytes.Equal(coded, archivetest.PlainArchive) {
		t.Fatal("the plain archive writes again as it is: no domain is front-coded")
	}
	return coded
}

// checkRerenders holds a snapshot that read to the front coding's contract:
// written again it is a section of the canonical coding — largest k — that
// reads back to the same snapshot, and written once more, the same bytes.
func checkRerenders(t *testing.T, snap *Snapshot) {
	t.Helper()
	var section, again bytes.Buffer
	if err := snap.WriteArchiveSection(&section); err != nil {
		t.Fatalf("a section that read does not write again: %v", err)
	}
	res := scanAll(t, bytes.NewReader(section.Bytes()), 0)
	snaps := snapshotsOf(res)
	if len(res.Events) != 1 || len(snaps) != 1 || !reflect.DeepEqual(snaps[0], snap) {
		t.Fatalf("written again, a section that read reads as %+v, want %+v", res.Events, snap)
	}
	if err := snaps[0].WriteArchiveSection(&again); err != nil || !bytes.Equal(again.Bytes(), section.Bytes()) {
		t.Fatalf("written twice, a section that read is not one coding: %v", err)
	}
}

// FuzzReadArchive exercises the salvage reader with arbitrary bytes: it may
// not panic, it refuses exactly the input that starts as a text archive,
// and whatever it accepts must be internally consistent — re-serializing
// the salvaged store and re-reading it must verify clean with the same
// number of snapshots, each re-rendered in the canonical front coding
// (checkRerenders). A corrupted section that slipped into the store "as
// clean" would break that round trip.
func FuzzReadArchive(f *testing.F) {
	_, valid := archiveFixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-archive
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40 // bit rot
	f.Add(flipped)
	f.Add([]byte("#snapshot\t2016-01-01\t1\na.com\tcom\top.net\tns1.op.net\ttrue\tfalse\tfalse\tfalse\n"))
	f.Add([]byte("#snapshot\t2016-01-01\t2\na.com\tcom\top\t\ttrue\ttrue\ttrue\ttrue\tok\n"))
	f.Add([]byte("#end\t2016-01-01\t10\tdeadbeef\n"))
	f.Add([]byte(""))
	// The first record cut before its flags, trailer untouched: the line
	// still parses, and only the framing catches the cut.
	f.Add(bytes.Replace(archivetest.Zcat(f, valid), []byte("\tkrdv\n"), []byte("\n"), 1))
	for _, seed := range slices.Concat(memberSeeds(f), keyedSeeds(f)) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		// Never an error on in-memory bytes but a text archive's, never a
		// mislabeled section.
		store, report, err := ReadArchive(bytes.NewReader(data))
		var want error
		if bytes.HasPrefix(data, textHeader) {
			want = ErrTextArchive
		}
		if !errors.Is(err, want) {
			t.Fatalf("ReadArchive returned %v on bytes, want %v", err, want)
		}
		if err != nil {
			return
		}
		if store.Len()+len(report.Quarantined) < report.Sections {
			t.Fatalf("sections unaccounted for: %d in store, %d quarantined, %d seen",
				store.Len(), len(report.Quarantined), report.Sections)
		}
		again, report2, err := ReadArchive(bytes.NewReader(archiveOf(t, store)))
		if err != nil || !report2.Clean() {
			t.Fatalf("salvaged store did not re-read clean: %v, %s", err, report2)
		}
		if again.Len() != store.Len() {
			t.Fatalf("archive round trip changed snapshot count: %d -> %d", store.Len(), again.Len())
		}
		for _, day := range store.Days() {
			checkRerenders(t, store.Get(day))
		}
	})
}

// scanAll drains the section scanner over r, which starts at absolute
// offset base of its archive.
func scanAll(t testing.TB, r io.Reader, base int64) *TailResult {
	t.Helper()
	return drain(t, newSectionScanner(r, base, nil))
}

// resumeAt drains the section scanner over data from offset from, able to
// read back before it — what TailArchive does over a file.
func resumeAt(t testing.TB, data []byte, from int64) *TailResult {
	t.Helper()
	return drain(t, newSectionScanner(bytes.NewReader(data[from:]), from, bytes.NewReader(data)))
}

// drain returns every event of sc.
func drain(t testing.TB, sc *sectionScanner) *TailResult {
	t.Helper()
	res := &TailResult{Offset: sc.base}
	for {
		ev, err := sc.next()
		if err == io.EOF {
			return res
		}
		if err != nil {
			t.Fatalf("scanner returned I/O error on bytes: %v", err)
		}
		res.Events = append(res.Events, ev)
		res.Offset = ev.End
	}
}

// checkKeysDelivered holds a scan of data from its start to delivering a
// section only if its member's text is intact — its trailer names the
// length and checksum of the text before it — and, for a keyed section, only
// if the scan delivered its key: a self-contained section at the distance,
// of the day and checksum the header names.
func checkKeysDelivered(t *testing.T, data []byte, res *TailResult) {
	type delivered struct {
		day   simtime.Day
		crc   uint32
		keyed bool
	}
	at := map[int64]delivered{}
	for i, ev := range res.Events {
		if ev.Snap == nil {
			continue
		}
		text := archivetest.Zcat(t, data[ev.At.Offset:ev.End])
		body := text[:bytes.LastIndex(text[:len(text)-1], []byte("\n"))+1]
		header, _, _ := bytes.Cut(body, []byte("\n"))
		_, _, ref, err := parseSnapshotHeader(strings.Split(string(header), "\t"))
		crc := crc32.Checksum(body, castagnoli)
		if want := fmt.Sprintf("%s\t%s\t%d\t%08x\n", trailerHeader, ev.Snap.Day, len(body), crc); err != nil || string(text[len(body):]) != want {
			t.Fatalf("event %d delivers a section whose text is not intact (%v): %q", i, err, text)
		}
		if ref != nil {
			if key, ok := at[ev.At.Offset-ref.dist]; !ok || key.keyed || key.day != ref.day || key.crc != ref.crc {
				t.Fatalf("event %d delivers a section keyed to %+v, and the scan delivered %+v there", i, *ref, key)
			}
		}
		at[ev.At.Offset] = delivered{ev.Snap.Day, crc, ref != nil}
	}
}

// FuzzTailArchive holds the section scanner, on arbitrary bytes, to what
// tail.go's header comment claims: it never panics; it refuses a text
// archive whole; its events' End offsets strictly increase, and the last
// (or 0) is where the scanner leaves the rest of the input undecided, a
// stray run there or nothing; the same bytes handed over one at a time yield the same events, so
// nothing depends on read boundaries; a scan resumed at any event's End
// yields exactly the events after that one, so a consumer's state is a pure
// function of the bytes before its cursor — a resumed scan reads back to a
// key behind it (checkKeysDelivered); and on the input cut at Offset, a
// section boundary, its verified snapshots are the sections ReadArchive
// accepts, except that ReadArchive keeps only the first section of a day;
// and each verified snapshot re-renders in the canonical front coding
// (checkRerenders).
func FuzzTailArchive(f *testing.F) {
	_, valid := archiveFixture(f)
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-archive
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40 // bit rot
	f.Add(flipped)
	f.Add(bytes.Join([][]byte{valid, []byte("stray\n\n"), valid}, nil)) // a superseded stray run, then every day again
	f.Add(append(bytes.Clone(valid), "\n\n#snapshot\t2016-07-01\t1\na.com"...))
	f.Add([]byte("#end\t2016-01-01\t10\tdeadbeef\n"))
	f.Add([]byte(""))
	text := archivetest.Zcat(f, valid)
	f.Add(bytes.Join([][]byte{text, []byte("stray\n\n"), text}, nil))
	f.Add(append(bytes.Clone(text), "\n\n#snapshot\t2016-07-01\t1\na.com"...))
	for _, seed := range slices.Concat(memberSeeds(f), keyedSeeds(f)) {
		f.Add(seed)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if bytes.HasPrefix(data, textHeader) {
			if _, err := newSectionScanner(bytes.NewReader(data), 0, nil).next(); !errors.Is(err, ErrTextArchive) {
				t.Fatalf("a text archive: %v, want ErrTextArchive", err)
			}
			return
		}
		sc := newSectionScanner(bytes.NewReader(data), 0, nil)
		res := &TailResult{}
		for {
			ev, err := sc.next()
			if err == io.EOF {
				break
			}
			if err != nil {
				t.Fatalf("scanner returned I/O error on bytes: %v", err)
			}
			res.Events = append(res.Events, ev)
			res.Offset = ev.End
		}
		if sc.stray == nil && res.Offset != int64(len(data)) || sc.stray != nil && sc.stray.Offset != res.Offset {
			t.Fatalf("the scan consumed %d of %d bytes, leaving %+v undecided", res.Offset, len(data), sc.stray)
		}
		var last int64
		for i, ev := range res.Events {
			if (ev.Snap == nil) == (ev.Damage == nil) {
				t.Fatalf("event %d carries neither or both of a snapshot and damage: %+v", i, ev)
			}
			if ev.End <= last {
				t.Fatalf("event %d ends at %d, the one before at %d", i, ev.End, last)
			}
			if ev.At.Offset < last || ev.At.Offset >= ev.End || (ev.Damage != nil && *ev.Damage != ev.At) {
				t.Fatalf("event %d: located at %+v, damage %+v, consuming bytes %d..%d", i, ev.At, ev.Damage, last, ev.End)
			}
			last = ev.End
		}

		checkKeysDelivered(t, data, res)

		if trickled := scanAll(t, iotest.OneByteReader(bytes.NewReader(data)), 0); !reflect.DeepEqual(trickled, res) {
			t.Fatalf("one byte at a time: events %+v to offset %d, want %+v to %d",
				trickled.Events, trickled.Offset, res.Events, res.Offset)
		}

		// A resumed scan counts lines from its own start, so Line is the one
		// field of an event that is not comparable.
		comparable := func(events []TailEvent) []TailEvent {
			out := make([]TailEvent, len(events))
			for i, ev := range events {
				out[i] = ev
				out[i].At.Line = 0
				if ev.Damage != nil {
					out[i].Damage = &out[i].At
				}
			}
			return out
		}
		for i, ev := range res.Events {
			resumed := resumeAt(t, data, ev.End)
			got, want := comparable(resumed.Events), comparable(res.Events[i+1:])
			if !reflect.DeepEqual(got, want) || resumed.Offset != res.Offset {
				t.Fatalf("resumed after event %d at %d: events %+v to offset %d, want %+v to %d",
					i, ev.End, got, resumed.Offset, want, res.Offset)
			}
		}

		store, _, err := ReadArchive(bytes.NewReader(data[:res.Offset]))
		if err != nil {
			t.Fatalf("ReadArchive returned I/O error on bytes: %v", err)
		}
		firstOfDay := map[simtime.Day]*Snapshot{}
		for _, snap := range snapshotsOf(res) {
			checkRerenders(t, snap)
			if firstOfDay[snap.Day] == nil {
				firstOfDay[snap.Day] = snap
			}
		}
		if store.Len() != len(firstOfDay) {
			t.Fatalf("ReadArchive accepted %d day(s), the tail scan verified %d", store.Len(), len(firstOfDay))
		}
		for day, snap := range firstOfDay {
			if got := store.Get(day); !reflect.DeepEqual(got, snap) {
				t.Fatalf("day %s: ReadArchive accepted %+v, the tail scan verified %+v", day, got, snap)
			}
		}
	})
}
