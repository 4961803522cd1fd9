package dataset

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/simtime"
)

// keyedArchive is the archive an ArchiveWriter writes of snaps, their
// records in canonical order, keyed in memory.
func keyedArchive(t testing.TB, snaps ...*Snapshot) []byte {
	t.Helper()
	var buf bytes.Buffer
	var keys keyer
	for _, snap := range snaps {
		if err := keys.section(&buf, int64(buf.Len()), snap.Day, len(snap.Records), func(emit func(line []byte) error) error {
			return eachLine(snap.Records, emit)
		}); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// sweptDays are n days of a daily sweep of size domains: each day drops a
// few domains, adds three, and changes a few records of the day before.
func sweptDays(n, size int) []*Snapshot {
	recs := fakeRecords(size, 1)
	sortRecords(recs)
	var days []*Snapshot
	for d := range n {
		next := make([]Record, 0, len(recs)+3)
		for i, r := range recs {
			switch (i + 7*d) % 41 {
			case 0: // gone today
				continue
			case 1:
				r.HasDS = !r.HasDS
			case 2:
				r.Failed, r.FailReason = true, "lame"
			case 3:
				r.NSHosts = []string{"ns1.z.net", fmt.Sprintf("ns2.z%d.net", d)}
			}
			next = append(next, r)
		}
		for k := range 3 {
			next = append(next, Record{Domain: fmt.Sprintf("new%d-%d.com", d, k), TLD: "com", NSHosts: []string{"ns1.y.net"}, Operator: "y.net"})
		}
		snap := &Snapshot{Day: simtime.Date(2016, 6, 1) + simtime.Day(d), Records: next}
		snap.Canonicalize()
		days = append(days, snap)
		recs = next
	}
	return days
}

// trailerCRC is the checksum a member's section trailer names.
func trailerCRC(t testing.TB, member []byte) string {
	t.Helper()
	lines := strings.Split(strings.TrimSuffix(string(archivetest.Zcat(t, member)), "\n"), "\n")
	fields := strings.Split(lines[len(lines)-1], "\t")
	return fields[len(fields)-1]
}

// TestKeyedSectionForms pins each line form of a keyed section: a bare
// carry, a carry with fields of its own, a skip, an explicit record
// front-coded against a carried one, and an NS set the keyed section
// defines for itself.
func TestKeyedSectionForms(t *testing.T) {
	x, y := []string{"ns1.x.net"}, []string{"ns1.y.net"}
	key := &Snapshot{Day: simtime.Date(2016, 1, 1), Records: []Record{
		{Domain: "a.com", TLD: "com", NSHosts: x, Operator: "x.net", HasDNSKEY: true},
		{Domain: "b.com", TLD: "com", NSHosts: x, Operator: "x.net"},
		{Domain: "c.com", TLD: "com", NSHosts: y, Operator: "y.net"},
		{Domain: "d.com", TLD: "com", NSHosts: y, Operator: "y.net", HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true},
		{Domain: "e.com", TLD: "com", Failed: true, FailReason: "timeout"},
	}}
	next := &Snapshot{Day: simtime.Date(2016, 1, 2), Records: []Record{
		key.Records[0],
		{Domain: "b.com", TLD: "com", NSHosts: x, Operator: "x.net", HasDNSKEY: true},
		key.Records[3],
		{Domain: "dd.com", TLD: "com", NSHosts: x, Operator: "x.net"},
		{Domain: "e.com", TLD: "com", NSHosts: y, Operator: "y.net"},
	}}
	archive := keyedArchive(t, key, next)
	members := archivetest.Members(t, archive)
	if len(members) != 2 {
		t.Fatalf("%d members, want 2", len(members))
	}
	want := archivetest.SealText(fmt.Sprintf("#snapshot\t2016-01-02\t5\tkey=2016-01-01:%d:%s\n", len(members[0]), trailerCRC(t, members[0])) +
		"^\n" +
		"^\tns1.x.net\tk\n" +
		"^1\n" +
		"Ad.com\t=0\n" +
		"^\tns1.y.net\n")
	if got := string(archivetest.Zcat(t, members[1])); got != want {
		t.Errorf("keyed section:\n%s\nwant:\n%s", got, want)
	}
	if !bytes.Equal(members[0], archivetest.Archive(t, key)) {
		t.Error("the key differs from its day's self-contained section")
	}
	store, report, err := ReadArchive(bytes.NewReader(archive))
	if err != nil || !report.Clean() || !reflect.DeepEqual(store.Get(next.Day), next) {
		t.Fatalf("%v, %s: %+v, want %+v", err, report, store.Get(next.Day), next)
	}
}

// TestKeyedLinesRejected: a keyed section whose key is not held, is not
// the section its header names, or is run past, and a carry in a section
// without a key or of a non-canonical skip, are quarantined with a reason
// that names the key or the record; the key itself reads.
func TestKeyedLinesRejected(t *testing.T) {
	key := archivetest.Seal("#snapshot\t2016-01-01\t2\na.com\tns1.x.net\nb.com\tns1.x.net\n")
	crc := trailerCRC(t, []byte(key))
	keyed := func(field, lines string) string {
		return archivetest.Seal(fmt.Sprintf("#snapshot\t2016-01-02\t%d\t%s\n%s", strings.Count(lines, "\n"), field, lines))
	}
	here := fmt.Sprintf("key=2016-01-01:%d:%s", len(key), crc)
	for _, c := range []struct{ name, section, reason string }{
		{"no key there", keyed(fmt.Sprintf("key=2016-01-01:%d:%s", len(key)-1, crc), "^\n"), "key 2016-01-01 at byte 1 not held"},
		{"before the file", keyed(fmt.Sprintf("key=2016-01-01:%d:%s", len(key)+1, crc), "^\n"), "key 2016-01-01 at byte -1 not held"},
		{"other checksum", keyed(fmt.Sprintf("key=2016-01-01:%d:00000000", len(key)), "^\n"), "header names 00000000"},
		{"other day", keyed(fmt.Sprintf("key=2015-12-31:%d:%s", len(key), crc), "^\n"), "the section there is 2016-01-01"},
		{"past the key", keyed(here, "^\n^\n^\n"), "record 3: carry runs past key 2016-01-01"},
		{"skip past the key", keyed(here, "^2\n"), "record 1: carry runs past key 2016-01-01"},
		{"zero skip", keyed(here, "^0\n"), "record 1: bad carry skip"},
		{"leading zero", keyed(here, "^01\n"), "record 1: bad carry skip"},
		{"no tab", keyed(here, "^x\n"), "record 1: bad carry"},
		{"out of order", keyed(here, "^1\na.com\t\n"), "record 2: out of order"},
		{"bad key field", keyed("key=2016-01-01:0:"+crc, "^\n"), "bad key distance"},
		{"no key", archivetest.Seal("#snapshot\t2016-01-02\t1\n^\n"), "record 1: a carry in a section without a key"},
	} {
		store, report, err := ReadArchive(strings.NewReader(key + c.section))
		if err != nil || store.Len() != 1 || len(report.Quarantined) != 1 || !strings.Contains(report.Quarantined[0].Reason, c.reason) {
			t.Errorf("%s: %v, %d day(s), %s; want the key and a quarantine naming %q", c.name, err, store.Len(), report, c.reason)
		}
	}
	// A carry of the key's first record and one of its second with fields
	// of its own read.
	store, report, err := ReadArchive(strings.NewReader(key + keyed(here, "^\n^\tns1.y.net\tk\n")))
	if err != nil || !report.Clean() || store.Len() != 2 {
		t.Fatalf("%v, %s", err, report)
	}
	want := []Record{
		{Domain: "a.com", TLD: "com", NSHosts: []string{"ns1.x.net"}, Operator: "x.net"},
		{Domain: "b.com", TLD: "com", NSHosts: []string{"ns1.y.net"}, Operator: "y.net", HasDNSKEY: true},
	}
	if got := store.Get(simtime.Date(2016, 1, 2)).Records; !reflect.DeepEqual(got, want) {
		t.Errorf("carried records %+v, want %+v", got, want)
	}
}

// TestKeyedResumeFromEveryBoundary: a scan of a keyed archive file started
// at any section boundary — inside a keyed run, so the key is behind it —
// delivers the snapshots a scan from the top delivers after that boundary;
// so does an archive of two keyed archives joined as cat joins them.
func TestKeyedResumeFromEveryBoundary(t *testing.T) {
	days := sweptDays(keyEvery+3, 40)
	later := sweptDays(keyEvery+3, 30)
	for _, snap := range later {
		snap.Day += 100
	}
	for name, archive := range map[string][]byte{
		"one archive":  keyedArchive(t, days...),
		"cat of two":   slices.Concat(keyedArchive(t, days...), keyedArchive(t, later...)),
		"front, keyed": slices.Concat(archivetest.FrontArchive, keyedArchive(t, days...)),
	} {
		path := filepath.Join(t.TempDir(), "a.tsv")
		archivetest.Write(t, path, archive)
		full, err := TailArchive(path, 0)
		if err != nil || len(full.Quarantined()) != 0 || full.Offset != int64(len(archive)) {
			t.Fatalf("%s: %v, %+v", name, err, full.Quarantined())
		}
		for i, ev := range full.Events {
			resumed, err := TailArchive(path, ev.End)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := snapshotsOf(resumed), snapshotsOf(&TailResult{Events: full.Events[i+1:]}); !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: resumed after section %d: %d snapshot(s), want the %d after it", name, i, len(got), len(want))
			}
		}
	}
}

// TestDamagedKeyQuarantinesItsSections: a byte flipped in a key quarantines
// the key and the sections keyed to it, and nothing more — the next key and
// its sections read; a byte flipped in a keyed section, or a keyed section
// cut short, quarantines that section alone.
func TestDamagedKeyQuarantinesItsSections(t *testing.T) {
	days := sweptDays(keyEvery+3, 40)
	archive := keyedArchive(t, days...)
	members := archivetest.Members(t, archive)
	starts := []int{0}
	for _, m := range members {
		starts = append(starts, starts[len(starts)-1]+len(m))
	}
	flipped := func(i int) []byte {
		b := bytes.Clone(archive)
		b[starts[i]+len(members[i])/2] ^= 0x10
		return b
	}
	for _, c := range []struct {
		name    string
		archive []byte
		lost    []int // the days quarantined, by index
	}{
		{"first key", flipped(0), []int{0, 1, 2, 3, 4, 5, 6}},
		{"second key", flipped(keyEvery), []int{7, 8, 9}},
		{"keyed section", flipped(3), []int{3}},
		{"keyed section cut", archive[:starts[len(members)-1]+len(members[len(members)-1])/2], []int{9}},
	} {
		store, report, err := ReadArchive(bytes.NewReader(c.archive))
		if err != nil {
			t.Fatal(err)
		}
		for i, want := range days {
			lost := slices.Contains(c.lost, i)
			if got := store.Get(want.Day); lost != (got == nil) || !lost && !reflect.DeepEqual(got, want) {
				t.Errorf("%s: day %d read as %v, want lost %v", c.name, i, got != nil, lost)
			}
		}
		if len(report.Quarantined) < len(c.lost) {
			t.Errorf("%s: %s", c.name, report)
		}
		for _, q := range report.Quarantined {
			if i := slices.IndexFunc(days, func(s *Snapshot) bool { return s.Day.String() == q.Day }); i >= 0 && i%keyEvery != 0 && c.lost[0]%keyEvery == 0 {
				if key := c.lost[0]; !strings.Contains(q.Reason, fmt.Sprintf("key %s at byte %d not held", days[key].Day, starts[key])) {
					t.Errorf("%s: %s", c.name, q)
				}
			}
		}
	}
}

// TestKeyedArchiveWorkerIdentity: a keyed archive whose keys span several
// deflate blocks is the same bytes whatever GOMAXPROCS the member writer
// deflates on, through an ArchiveWriter and from memory alike. CI runs it
// at GOMAXPROCS 1 and 4 too.
func TestKeyedArchiveWorkerIdentity(t *testing.T) {
	days := sweptDays(keyEvery+1, 8000)
	var want []byte
	for _, procs := range []int{1, 4} {
		func() {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			path := filepath.Join(t.TempDir(), "a.tsv")
			aw, err := NewArchiveWriter(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, snap := range days {
				if err := aw.Snapshot(&Snapshot{Day: snap.Day, Records: slices.Clone(snap.Records)}); err != nil {
					t.Fatal(err)
				}
			}
			if err := aw.Close(); err != nil {
				t.Fatal(err)
			}
			got := archivetest.Read(t, path)
			if want == nil {
				want = got
				if len(archivetest.Zcat(t, archivetest.Members(t, got)[0])) <= memberBlock {
					t.Fatal("the key fits one deflate block")
				}
			}
			if !bytes.Equal(got, want) || !bytes.Equal(keyedArchive(t, days...), want) {
				t.Errorf("GOMAXPROCS %d: the keyed archive's bytes differ from GOMAXPROCS 1's", procs)
			}
		}()
	}
}
