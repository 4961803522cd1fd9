package dataset

import (
	"bytes"
	"path/filepath"
	"reflect"
	"slices"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
)

// TestMemberHeaderFixed: every section writeSection writes starts with the
// one member header the scanner looks for.
func TestMemberHeaderFixed(t *testing.T) {
	for _, n := range []int{0, 1, 3000} {
		if member := archivetest.Archive(t, tailSnap(10, n)); !bytes.HasPrefix(member, memberHeader) {
			t.Fatalf("a section of %d records starts % x, want % x", n, member[:len(memberHeader)], memberHeader)
		}
	}
}

// TestMemberFlipQuarantinesOnlyItsDay: a byte flipped anywhere in the middle
// member of three — its header, its deflate stream, its gzip trailer —
// quarantines that member's bytes alone, from its first byte, and the days
// around it read; a tail scan consumes all three. Where the decoder fails
// inside the member, the rest of its bytes are a stray run of their own.
func TestMemberFlipQuarantinesOnlyItsDay(t *testing.T) {
	snaps := []*Snapshot{tailSnap(10, 30), tailSnap(11, 30), tailSnap(12, 30)}
	var members [][]byte
	for _, s := range snaps {
		members = append(members, archivetest.Archive(t, s))
	}
	start, end := len(members[0]), len(members[0])+len(members[1])
	for i := start; i < end; i++ {
		archive := slices.Concat(members...)
		archive[i] ^= 0x01
		store, report, err := ReadArchive(bytes.NewReader(archive))
		if err != nil {
			t.Fatal(err)
		}
		q := report.Quarantined
		if len(q) == 0 || len(q) > 2 || q[0].Offset != int64(start) || q[len(q)-1].Offset >= int64(end) {
			t.Fatalf("byte %d flipped: quarantined %v, want the member's bytes from byte %d", i, q, start)
		}
		if store.Len() != 2 || !reflect.DeepEqual(store.Get(10), snaps[0]) || !reflect.DeepEqual(store.Get(12), snaps[2]) {
			t.Fatalf("byte %d flipped: read days %v, want 10 and 12 as written", i, store.Days())
		}
		res := scanAll(t, bytes.NewReader(archive), 0)
		evs := res.Events
		if len(evs) != len(q)+2 || evs[0].End != int64(start) || evs[len(evs)-2].End != int64(end) ||
			evs[len(evs)-1].Snap == nil || res.Offset != int64(len(archive)) {
			t.Fatalf("byte %d flipped: tail events %+v to offset %d", i, evs, res.Offset)
		}
	}
}

// TestMemberStrayBytes: bytes between two members — without a newline, with
// the first bytes of a member header among them — are one stray run, and
// both members read.
func TestMemberStrayBytes(t *testing.T) {
	p := newTailPieces(t)
	checkTailEvents(t, [][]byte{p.s10, slices.Concat([]byte("\x00junk\tmore"), memberHeader[:6], []byte("\nnot a record\n\n"), memberHeader[:9]), p.s11},
		sectionOf(10), stray, sectionOf(11))
}

// TestMemberTextNotOneSection: a member is read only when its text is
// exactly one section; else it is damage located at its first byte.
func TestMemberTextNotOneSection(t *testing.T) {
	one, other := textSection(t, tailSnap(10, 2)), textSection(t, tailSnap(11, 2))
	after := archivetest.Archive(t, tailSnap(12, 1))
	for name, tc := range map[string]struct {
		text   string
		reason string
	}{
		"two sections":         {string(one) + string(other), "text after the section trailer"},
		"torn section":         {string(one[:bytes.LastIndex(one, []byte(trailerHeader))]) + string(other), "record count mismatch: header declares 2, found more"},
		"records before":       {"a.com\tns1.x\n" + string(one), "text before the section header"},
		"blank line after":     {string(one) + "\n", "text after the section trailer"},
		"no trailer":           {string(one[:bytes.LastIndex(one, []byte(trailerHeader))]), "truncated section (no trailer)"},
		"empty":                {"", "member holds no section"},
		"blank line":           {"\n", "text before the section header"},
		"trailer without \\n":  {string(one[:len(one)-1]), "malformed trailer"},
		"bad record":           {archivetest.SealText("#snapshot\t2016-01-11\t1\n\tns1.x\n"), "record 1: empty domain"},
		"records past a count": {archivetest.SealText("#snapshot\t2016-01-11\t1\na.com\tns1.x\nb.com\t=0\n"), "record count mismatch: header declares 1, found more"},
	} {
		member := archivetest.Deflate([]byte(tc.text))
		store, report, err := ReadArchive(bytes.NewReader(append(member, after...)))
		if err != nil || store.Len() != 1 || store.Get(12) == nil {
			t.Fatalf("%s: %v, days %v", name, err, store.Days())
		}
		if q := report.Quarantined; len(q) != 1 || q[0].Offset != 0 || q[0].Reason != tc.reason {
			t.Errorf("%s: quarantined %+v, want %q at byte 0", name, q, tc.reason)
		}
	}
}

// TestMemberLastDamageFinal: a member at the end of the archive whose
// decoder fails on the member's own bytes is final damage to a tailer, not
// left for its next poll: a flipped byte of the gzip checksum quarantines
// the whole member at once. A flip anywhere else either does the same, up
// to where the decoder failed, or leaves the decoder wanting more bytes,
// which is what a member still being written looks like.
func TestMemberLastDamageFinal(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	first, last := archivetest.Archive(t, tailSnap(10, 30)), archivetest.Archive(t, tailSnap(11, 30))
	crc := len(last) - 8
	for i := len(memberHeader); i < len(last); i++ {
		flipped := bytes.Clone(last)
		flipped[i] ^= 0x01
		archivetest.Write(t, path, slices.Concat(first, flipped))
		res, err := TailArchive(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if res.Events[0].Snap == nil || res.Events[0].End != int64(len(first)) {
			t.Fatalf("byte %d flipped: first event %+v", i, res.Events[0])
		}
		if len(res.Events) == 1 {
			_, report, err := ReadArchive(bytes.NewReader(slices.Concat(first, flipped)))
			if err != nil || len(report.Quarantined) != 1 || report.Quarantined[0].Reason != "truncated gzip member" || i >= crc && i < crc+4 {
				t.Fatalf("byte %d flipped: the tailer left the member undecided; ReadArchive: %v %v", i, report.Quarantined, err)
			}
			continue
		}
		if d := res.Events[1].Damage; d == nil || d.Offset != int64(len(first)) || d.Day != tailSnap(11, 0).Day.String() && i >= crc {
			t.Fatalf("byte %d flipped: second event %+v, want damage to day 11 at byte %d", i, res.Events[1], len(first))
		}
		if i >= crc && i < crc+4 && (len(res.Events) != 2 || res.Offset != int64(len(first)+len(last))) {
			t.Fatalf("checksum byte %d flipped: events %+v to offset %d, want the member consumed", i, res.Events, res.Offset)
		}
	}
}

// TestMemberCutThenIntact: a member cut short anywhere and followed by an
// intact one — the decoder of the first runs on into the second, and may
// reach the end of input — is damage that both ReadArchive and TailArchive
// pass over to read the second.
func TestMemberCutThenIntact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "a.archive")
	cut, intact := archivetest.Archive(t, tailSnap(10, 30)), archivetest.Archive(t, tailSnap(11, 2))
	for k := 1; k < len(cut); k++ {
		archive := slices.Concat(cut[:k], intact)
		store, report, err := ReadArchive(bytes.NewReader(archive))
		if err != nil || store.Len() != 1 || !reflect.DeepEqual(store.Get(11), tailSnap(11, 2)) || len(report.Quarantined) == 0 {
			t.Fatalf("cut at %d: %v, days %v, quarantined %v", k, err, store.Days(), report.Quarantined)
		}
		archivetest.Write(t, path, archive)
		res, err := TailArchive(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if snaps := snapshotsOf(res); len(snaps) != 1 || res.Offset != int64(len(archive)) {
			t.Fatalf("cut at %d: tail events %+v to offset %d, want day 11 read", k, res.Events, res.Offset)
		}
	}
}

// TestMemberLinesCountAsZcatPrints: an event's Line is the line zcat prints
// its header on, whatever members precede it.
func TestMemberLinesCountAsZcatPrints(t *testing.T) {
	texts := [][]byte{textSection(t, tailSnap(10, 3)), textSection(t, tailSnap(11, 4)), textSection(t, tailSnap(12, 5))}
	archive := slices.Concat(archivetest.Deflate(texts[0]), archivetest.Deflate(texts[1]), archivetest.Deflate(texts[2]))
	res := scanAll(t, bytes.NewReader(archive), 0)
	line := 1
	for i, ev := range res.Events {
		if ev.Snap == nil || ev.At.Line != line {
			t.Fatalf("event %d at line %d, want a snapshot at line %d", i, ev.At.Line, line)
		}
		line += bytes.Count(texts[i], []byte("\n"))
	}
	if len(res.Events) != len(texts) {
		t.Fatalf("%d events, want %d", len(res.Events), len(texts))
	}
}
