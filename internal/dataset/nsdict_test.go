package dataset

import (
	"bytes"
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/simtime"
)

// TestNSReferences pins how a section writes a repeated NS set, and that
// the records referring to one set share its decoded hosts.
func TestNSReferences(t *testing.T) {
	a, b := []string{"ns1.op.net", "ns2.op.net"}, []string{"ns-5.awsdns-01.org"}
	snap := &Snapshot{Day: simtime.End, Records: []Record{
		{Domain: "a.com", TLD: "com", NSHosts: a, Operator: "op.net"},
		{Domain: "b.com", TLD: "com", NSHosts: b, Operator: "awsdns", HasDNSKEY: true},
		{Domain: "c.com", TLD: "com", NSHosts: a, Operator: "op.net"},
		{Domain: "d.com", TLD: "com", NSHosts: b, Operator: "cohort"},
		{Domain: "e.com", TLD: "com", Failed: true, FailReason: "timeout"},
		{Domain: "f.com", TLD: "com", NSHosts: a, Operator: "op.net"},
	}}
	var section bytes.Buffer
	if err := snap.WriteArchiveSection(&section); err != nil {
		t.Fatal(err)
	}
	want := "#snapshot\t2016-12-31\t6\n" +
		"a.com\tns1.op.net,ns2.op.net\n" +
		"b.com\tns-5.awsdns-01.org\tk\n" +
		"c.com\t=0\n" +
		"d.com\t=1\t\t\t\tcohort\n" +
		"e.com\t\t\ttimeout\n" +
		"f.com\t=0\n"
	if got := string(archivetest.Zcat(t, section.Bytes())); got != archivetest.SealText(want) {
		t.Fatalf("section:\n%s\nwant:\n%s", got, archivetest.SealText(want))
	}
	got, err := ReadArchiveStrict(&section)
	if err != nil {
		t.Fatal(err)
	}
	recs := got.Get(simtime.End).Records
	if !reflect.DeepEqual(recs, snap.Records) {
		t.Fatalf("read back %+v, want %+v", recs, snap.Records)
	}
	if &recs[2].NSHosts[0] != &recs[0].NSHosts[0] || &recs[5].NSHosts[0] != &recs[0].NSHosts[0] || &recs[3].NSHosts[0] != &recs[1].NSHosts[0] {
		t.Error("records referring to one NS set do not share its hosts")
	}
}

// TestBadNSReference: a reference that is malformed, non-canonical, not yet
// defined, or defined only in an earlier section damages its section, and
// is never resolved to another set.
func TestBadNSReference(t *testing.T) {
	const defined = "#snapshot\t2016-01-01\t3\n" +
		"a.com\tns1.op.net\n" +
		"b.com\tns1.other.net\n"
	for _, ref := range []string{"=", "=01", "=00", "=-1", "=+1", "= 1", "=1x", "=2", "=65536", "=99999999999999999999"} {
		archive := archivetest.Seal(defined + "c.com\t" + ref + "\n")
		if n, reasons := quarantines(t, archive); n != 0 || reasons != "record 3: bad NS reference" {
			t.Errorf("%q: %d snapshot(s), quarantined %q", ref, n, reasons)
		}
	}
	// The same section with canonical references reads.
	ok := archivetest.Seal("#snapshot\t2016-01-01\t4\n" +
		"a.com\tns1.op.net\n" +
		"b.com\tns1.other.net\n" +
		"c.com\t=1\n" +
		"d.com\t=0\n")
	store, err := ReadArchiveStrict(strings.NewReader(ok))
	if err != nil {
		t.Fatal(err)
	}
	if recs := store.Get(simtime.Date(2016, 1, 1)).Records; recs[2].NSHosts[0] != "ns1.other.net" || recs[3].NSHosts[0] != "ns1.op.net" || recs[3].Operator != "op.net" {
		t.Errorf("canonical references read as %+v", recs)
	}
	// A second section starts with no sets: a reference to the first's is
	// damage, and costs the first section nothing.
	second := archivetest.Seal("#snapshot\t2016-01-02\t1\nc.com\t=0\n")
	if n, reasons := quarantines(t, ok+second); n != 1 || reasons != "record 1: bad NS reference" {
		t.Errorf("a reference across sections: %d snapshot(s), quarantined %q", n, reasons)
	}
}

// TestNSSetCap: a section numbers its first maxNSSets distinct NS sets; one
// first seen after that is written in full every time it appears, and the
// section still reads back exactly.
func TestNSSetCap(t *testing.T) {
	const distinct = maxNSSets + 10
	snap := &Snapshot{Day: simtime.End}
	set := func(i int) []string { return []string{fmt.Sprintf("ns1.op%06d.net", i)} }
	for i := range distinct {
		snap.Records = append(snap.Records, Record{Domain: fmt.Sprintf("d%06d.com", i), TLD: "com", NSHosts: set(i), Operator: GroupOperatorAll(set(i))})
	}
	// After every d*.com line: the first and the last numbered sets, then
	// the first and the last set past the cap, each twice.
	for i, s := range []int{0, maxNSSets - 1, maxNSSets, distinct - 1, 0, maxNSSets - 1, maxNSSets, distinct - 1} {
		snap.Records = append(snap.Records, Record{Domain: fmt.Sprintf("e%d.com", i), TLD: "com", NSHosts: set(s), Operator: GroupOperatorAll(set(s))})
	}
	var section bytes.Buffer
	if err := snap.WriteArchiveSection(&section); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(string(archivetest.Zcat(t, section.Bytes())), "\n")
	tail := lines[1+distinct : 1+distinct+8]
	for i, col := range []string{"=0", "=65535", "ns1.op065536.net", "ns1.op065545.net", "=0", "=65535", "ns1.op065536.net", "ns1.op065545.net"} {
		if got := strings.Split(tail[i], "\t")[1]; got != col {
			t.Errorf("e%d.com writes its NS set as %q, want %q", i, got, col)
		}
	}
	got, err := ReadArchiveStrict(&section)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Get(simtime.End).Records, snap.Records) {
		t.Error("a section past the cap does not read back to its records")
	}
}

// nsPool is the NS sets FuzzSectionRoundTrip draws from; the fuzzed string
// adds one more when the line can carry its hosts.
var nsPool = [][]string{
	nil,
	{"ns1.op.net", "ns2.op.net"},
	{"ns-5.awsdns-01.org", "ns-9.awsdns-22.co.uk"},
	{"ns.1and1.fr"},
	{"ns1.tail0001.com-hosting.example"},
}

// fuzzRecords turns fuzz bytes into a canonical section's records, one per
// byte: its NS set from the pool, its flags, whether its operator is a
// cohort name rather than the grouping of its hosts, and whether its TLD is
// two labels, which the line must spell out. The records come back in
// section order, every TLD before "com".
func fuzzRecords(data []byte, pool [][]string) []Record {
	recs := make([]Record, 0, len(data))
	for i, b := range data {
		hosts := pool[int(b)%len(pool)]
		r := Record{Domain: fmt.Sprintf("d%04d.com", i), TLD: "com", NSHosts: hosts, Operator: GroupOperatorAll(hosts),
			HasDNSKEY: b&0x10 != 0, HasRRSIG: b&0x20 != 0, HasDS: b&0x40 != 0, ChainValid: b&0x80 != 0}
		if b&0x04 != 0 {
			r.Domain, r.TLD = fmt.Sprintf("d%04d.co.uk", i), "co.uk"
		}
		switch {
		case hosts == nil && b&0x08 != 0:
			r.Failed, r.FailReason = true, "timeout"
			r.HasDNSKEY, r.HasRRSIG, r.HasDS, r.ChainValid = false, false, false, false
		case b&0x08 != 0:
			r.Operator = "cohort"
		}
		recs = append(recs, r)
	}
	sortRecords(recs)
	return recs
}

// FuzzSectionRoundTrip holds the NS-set dictionary and the front coding to
// their contract. Records made from the fuzz bytes, whose hosts the line can
// carry, whose NS sets repeat and whose domains share prefixes, round-trip
// through WriteArchiveSection and TailArchive; the member is refused cut
// short or with a byte flipped; and the section is byte for byte what a
// SpillWriter that spilled runs makes of them. Then a line whose NS column
// is the fuzzed string, and whose domain takes the fuzzed count of bytes
// from the record before it, is added to the section, or to a second
// section after it: a column starting with '=' reads only as a canonical
// reference to a set defined earlier in the same section, and as exactly
// that set; anything else starting with '=' is damage; a count the name
// before cannot give is damage; and what reads re-renders in the canonical
// coding (checkRerenders).
func FuzzSectionRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 1, 3, 0, 8, 1, 2}, "=", false, uint8(0))
	f.Add([]byte{1, 2, 1, 3}, "=01", false, uint8(0))
	f.Add([]byte{1, 2, 1, 3}, "=-1", false, uint8(0))
	f.Add([]byte{1, 2, 1, 3}, "=65536", false, uint8(0))
	f.Add([]byte{1, 2, 1}, "=2", false, uint8(0))   // a forward reference: two sets defined
	f.Add([]byte{1, 2, 3, 4}, "=0", true, uint8(0)) // defined only in the first section
	f.Add([]byte{1, 1, 1, 5, 5, 0}, "ns9.x.net,ns8.x.net", false, uint8(0))
	f.Add([]byte{0xf1, 0x31, 0xf2, 0x51, 0xf1}, "=1", false, uint8(0))     // signed, and partly signed
	f.Add([]byte{0x28, 0x01, 0x28, 0x2d, 0x00}, "=0", false, uint8(0))     // failed, one with a TLD of two labels
	f.Add([]byte{0x05, 0x0d, 0x09, 0x0c, 0xf5, 0x01}, "", false, uint8(0)) // TLD and operator spelled out
	f.Add([]byte{1, 2, 1, 3}, "=0", false, uint8(4))                       // the domain before's first label
	f.Add([]byte{1, 2, 1, 3}, "=0", false, uint8(9))                       // all of the domain before
	f.Add([]byte{1, 2, 1, 3}, "=0", false, uint8(10))                      // more than the domain before
	f.Add([]byte{1, 2, 1, 3}, "=0", true, uint8(1))                        // a first record with a marker
	f.Fuzz(func(t *testing.T, data []byte, col string, second bool, shared uint8) {
		if len(data) == 0 || len(data) > 512 || strings.ContainsAny(col, "\t\n") {
			return
		}
		pool := nsPool
		if hosts := strings.Split(col, ","); !slices.ContainsFunc(hosts, func(h string) bool { return !LineCarriesHost(h) }) {
			pool = append(slices.Clip(pool), hosts)
		}
		snap := &Snapshot{Day: simtime.Date(2016, 1, 1), Records: fuzzRecords(data, pool)}
		var section bytes.Buffer
		if err := snap.WriteArchiveSection(&section); err != nil {
			t.Fatal(err)
		}

		path := filepath.Join(t.TempDir(), "a.archive")
		archivetest.Write(t, path, section.Bytes())
		res, err := TailArchive(path, 0)
		if err != nil {
			t.Fatal(err)
		}
		if snaps := snapshotsOf(res); len(res.Events) != 1 || len(snaps) != 1 || !reflect.DeepEqual(snaps[0].Records, snap.Records) {
			t.Fatalf("TailArchive read %+v, want the records %+v", res.Events, snap.Records)
		}

		// Cut short where the first fuzz byte says, the member is undecided
		// to a tail scan; with the bit flipped that the last byte names,
		// it is refused, and the same section after it still reads.
		member := section.Bytes()
		if cut := scanAll(t, bytes.NewReader(member[:len(member)*int(data[0])/256]), 0); len(cut.Events) != 0 || cut.Offset != 0 {
			t.Fatalf("the member cut at %d of %d bytes: events %+v to offset %d", len(member)*int(data[0])/256, len(member), cut.Events, cut.Offset)
		}
		flipped := bytes.Clone(member)
		flipped[len(member)*int(data[len(data)-1])/256] ^= 0x01
		if store, report, err := ReadArchive(bytes.NewReader(append(flipped, member...))); err != nil || len(report.Quarantined) == 0 ||
			store.Len() != 1 || !reflect.DeepEqual(store.Get(snap.Day).Records, snap.Records) {
			t.Fatalf("a byte flipped at %d: %v, %s", len(member)*int(data[len(data)-1])/256, err, report)
		}

		sw := NewSpillWriter(snap.Day, SpillOptions{Dir: t.TempDir(), MemBudget: 1 << 10})
		defer sw.Close()
		for i := len(snap.Records) - 1; i >= 0; i-- {
			if err := sw.Append(snap.Records[i]); err != nil {
				t.Fatal(err)
			}
		}
		var merged bytes.Buffer
		if err := sw.WriteSectionTo(&merged); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(merged.Bytes(), section.Bytes()) {
			t.Fatalf("the spill merge (%d runs) wrote\n%s\nWriteArchiveSection\n%s", sw.Runs(), merged.Bytes(), section.Bytes())
		}

		// The hand-written line: after the records in their own section, or
		// alone in a second one.
		var sets []string
		if !second {
			seen := map[string]bool{}
			for _, r := range snap.Records {
				if key := strings.Join(r.NSHosts, ","); key != "" && !seen[key] {
					seen[key] = true
					sets = append(sets, key)
				}
			}
		}
		prev, k := "", int(shared)%(maxShared+1)
		if !second {
			prev = snap.Records[len(snap.Records)-1].Domain
		}
		line := "zz.com\t" + col + "\n"
		if k > 0 {
			line = string(rune('A'+k-1)) + line
		}
		body := "#snapshot\t2016-01-02\t1\n" + line
		archive := section.String()
		if !second {
			archive = string(archivetest.Zcat(t, section.Bytes()))
			body = strings.Replace(archive[:strings.Index(archive, trailerHeader)], fmt.Sprintf("\t%d\n", len(snap.Records)), fmt.Sprintf("\t%d\n", len(snap.Records)+1), 1) + line
			archive = ""
		}
		store, report, err := ReadArchive(strings.NewReader(archive + archivetest.Seal(body)))
		if err != nil {
			t.Fatal(err)
		}
		for _, day := range store.Days() {
			checkRerenders(t, store.Get(day))
		}
		if k > len(prev) {
			if len(report.Quarantined) != 1 || !strings.HasSuffix(report.Quarantined[0].Reason, fmt.Sprintf(": front-coded name shares %d bytes with a name of %d", k, len(prev))) {
				t.Fatalf("a marker for %d bytes after %q: quarantined %v", k, prev, report.Quarantined)
			}
			return
		}
		want := strings.Split(col, ",")
		canonical := false
		if strings.HasPrefix(col, "=") {
			for k, s := range sets {
				if col == fmt.Sprintf("=%d", k) {
					want, canonical = strings.Split(s, ","), true
				}
			}
			if !canonical {
				if len(report.Quarantined) != 1 || !strings.HasSuffix(report.Quarantined[0].Reason, ": bad NS reference") {
					t.Fatalf("NS column %q, %d set(s) defined: quarantined %v", col, len(sets), report.Quarantined)
				}
				return
			}
		}
		if col == "" {
			want = nil
		}
		day := simtime.Date(2016, 1, 1)
		if second {
			day = simtime.Date(2016, 1, 2)
		}
		recs := store.Get(day)
		if !report.Clean() || recs == nil {
			t.Fatalf("NS column %q: quarantined %v", col, report.Quarantined)
		}
		last := recs.Records[len(recs.Records)-1]
		if !reflect.DeepEqual(last.NSHosts, want) {
			t.Fatalf("NS column %q reads as %q, want %q", col, last.NSHosts, want)
		}
		if name := prev[:k] + "zz.com"; last.Domain != name {
			t.Fatalf("a marker for %d bytes after %q reads as %q, want %q", k, prev, last.Domain, name)
		}
	})
}
