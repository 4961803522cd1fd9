package dataset

import (
	"bytes"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/simtime"
)

func TestGroupOperator(t *testing.T) {
	cases := []struct{ in, want string }{
		{"ns01.domaincontrol.com", "domaincontrol.com"},
		{"NS02.DOMAINCONTROL.COM", "domaincontrol.com"},
		{"dns1.registrar-servers.com", "registrar-servers.com"},
		{"a.b.c.ovh.net", "ovh.net"},
		// Amazon Route 53 convention collapses across TLDs.
		{"ns-123.awsdns-13.net", "awsdns"},
		{"ns-99.awsdns-07.co.uk", "awsdns"},
		// 1&1 per-ccTLD servers collapse.
		{"ns-1and1.co.uk", "1and1"},
		{"ns.1and1.fr", "1and1"},
		{"", ""},
		{"com", "com"},
	}
	for _, c := range cases {
		if got := GroupOperator(c.in); got != c.want {
			t.Errorf("GroupOperator(%q) = %q, want %q", c.in, got, c.want)
		}
	}
	if got := GroupOperatorAll([]string{"ns1.ovh.net", "ns2.other.net"}); got != "ovh.net" {
		t.Errorf("GroupOperatorAll = %q", got)
	}
	if got := GroupOperatorAll(nil); got != "" {
		t.Errorf("GroupOperatorAll(nil) = %q", got)
	}
}

func TestRecordDeployment(t *testing.T) {
	cases := []struct {
		rec  Record
		want dnssec.Deployment
	}{
		{Record{}, dnssec.DeploymentNone},
		{Record{HasDNSKEY: true}, dnssec.DeploymentPartial},
		{Record{HasDNSKEY: true, HasDS: true, ChainValid: true}, dnssec.DeploymentFull},
		{Record{HasDNSKEY: true, HasDS: true}, dnssec.DeploymentBroken},
	}
	for i, c := range cases {
		if got := c.rec.Deployment(); got != c.want {
			t.Errorf("case %d: %v, want %v", i, got, c.want)
		}
	}
}

func TestStore(t *testing.T) {
	s := NewStore()
	if len(s.Days()) != 0 || s.Len() != 0 {
		t.Error("empty store misbehaves")
	}
	d1, d2 := simtime.Date(2016, 1, 1), simtime.Date(2016, 6, 1)
	s.Add(&Snapshot{Day: d2})
	s.Add(&Snapshot{Day: d1})
	days := s.Days()
	if len(days) != 2 || days[0] != d1 || days[1] != d2 {
		t.Errorf("days: %v", days)
	}
	if s.Get(d1) == nil || s.Get(simtime.Date(2015, 1, 1)) != nil {
		t.Error("Get wrong")
	}
	// Replacement.
	s.Add(&Snapshot{Day: d1, Records: []Record{{Domain: "x.com"}}})
	if len(s.Get(d1).Records) != 1 || s.Len() != 2 {
		t.Error("replacement failed")
	}
}

func TestTSVRoundTrip(t *testing.T) {
	store := NewStore()
	store.Add(&Snapshot{Day: simtime.Date(2016, 1, 1), Records: []Record{
		{Domain: "a.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net", "ns2.op.net"},
			HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true},
		{Domain: "b.com", TLD: "com", Operator: "other.net", NSHosts: []string{"ns1.other.net"}},
	}})
	store.Add(&Snapshot{Day: simtime.Date(2016, 6, 1), Records: []Record{
		{Domain: "a.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net"},
			HasDNSKEY: true, HasRRSIG: true},
	}})
	var buf bytes.Buffer
	if err := store.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchiveStrict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Len() != 2 {
		t.Fatalf("snapshots: %d", got.Len())
	}
	s1 := got.Get(simtime.Date(2016, 1, 1))
	if len(s1.Records) != 2 {
		t.Fatalf("records: %d", len(s1.Records))
	}
	if !reflect.DeepEqual(s1.Records, store.Get(simtime.Date(2016, 1, 1)).Records) {
		t.Errorf("records differ:\n%+v\n%+v", s1.Records, store.Get(simtime.Date(2016, 1, 1)).Records)
	}
}

func TestTSVFailedRecordRoundTrip(t *testing.T) {
	store := NewStore()
	store.Add(&Snapshot{Day: simtime.Date(2016, 6, 1), Records: []Record{
		{Domain: "up.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net"}, HasDNSKEY: true},
		{Domain: "down.com", TLD: "com", Failed: true, FailReason: "timeout"},
		{Domain: "odd.com", TLD: "com", Failed: true}, // no class recorded
	}})
	var buf bytes.Buffer
	if err := store.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchiveStrict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := got.Get(simtime.Date(2016, 6, 1)).Records
	if len(recs) != 3 {
		t.Fatalf("records: %d", len(recs))
	}
	if recs[0].Failed || !recs[0].Measured() {
		t.Errorf("up.com marked failed after round trip: %+v", recs[0])
	}
	if !recs[1].Failed || recs[1].FailReason != "timeout" || recs[1].Measured() {
		t.Errorf("down.com lost its gap marker: %+v", recs[1])
	}
	// A Failed record without a class still round-trips as failed.
	if !recs[2].Failed || recs[2].FailReason != "failed" {
		t.Errorf("odd.com: %+v", recs[2])
	}
	if got.Get(simtime.Date(2016, 6, 1)).MeasuredCount() != 1 {
		t.Errorf("MeasuredCount = %d, want 1", got.Get(simtime.Date(2016, 6, 1)).MeasuredCount())
	}

}

// sealed closes a hand-written section body with the trailer that matches
// it, so that what a reader makes of the section depends on its header and
// record lines alone.
func sealed(body string) string {
	day := ""
	if header := strings.Split(strings.SplitN(body, "\n", 2)[0], "\t"); len(header) >= 2 {
		day = header[1]
	}
	return body + fmt.Sprintf("%s\t%s\t%d\t%08x\n", trailerHeader, day, len(body),
		crc32.Checksum([]byte(body), castagnoli))
}

// TestRecordWithoutStatusColumnRejected: a record line cut before its
// status column must never read back as a measurement — both archive
// readers quarantine its section.
func TestRecordWithoutStatusColumnRejected(t *testing.T) {
	// A trailer that matches the cut body: only the field count can catch it.
	archive := sealed("#snapshot\t2016-01-01\t1\nold.com\tcom\top.net\tns1.op.net\ttrue\tfalse\tfalse\tfalse\n")
	store, report, err := ReadArchive(strings.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 0 || len(report.Quarantined) != 1 || !strings.Contains(report.Quarantined[0].Reason, "8 fields") {
		t.Errorf("ReadArchive: %d snapshots, report %s", store.Len(), report)
	}

	path := filepath.Join(t.TempDir(), "cut.archive")
	if err := os.WriteFile(path, []byte(archive), 0o644); err != nil {
		t.Fatal(err)
	}
	res, err := TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Snapshots()) != 0 || len(res.Quarantined()) != 1 || !strings.Contains(res.Quarantined()[0].Reason, "8 fields") {
		t.Errorf("TailArchive: %d snapshots, quarantined %v", len(res.Snapshots()), res.Quarantined())
	}
}

func TestTSVEmptyNSHostsRoundTrip(t *testing.T) {
	// strings.Join(nil, ",") writes an empty NS field; it must come back
	// as no NS hosts, never as [""].
	store := NewStore()
	store.Add(&Snapshot{Day: simtime.Date(2016, 1, 1), Records: []Record{
		{Domain: "lame.com", TLD: "com", Operator: ""},
		{Domain: "gap.com", TLD: "com", Failed: true, FailReason: "timeout"},
		{Domain: "ok.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net"}},
	}})
	var buf bytes.Buffer
	if err := store.WriteArchive(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadArchiveStrict(&buf)
	if err != nil {
		t.Fatal(err)
	}
	recs := got.Get(simtime.Date(2016, 1, 1)).Records
	for _, i := range []int{0, 1} {
		if n := len(recs[i].NSHosts); n != 0 {
			t.Errorf("%s: NSHosts = %q, want none", recs[i].Domain, recs[i].NSHosts)
		}
		if recs[i].NSHosts != nil {
			t.Errorf("%s: empty NS field parsed as %#v, want nil", recs[i].Domain, recs[i].NSHosts)
		}
	}
	if len(recs[2].NSHosts) != 1 {
		t.Errorf("ok.com: NSHosts = %q", recs[2].NSHosts)
	}
}

// quarantines reads a hand-written archive and returns how many snapshots
// it yielded and the reasons of everything quarantined, joined.
func quarantines(t *testing.T, archive string) (int, string) {
	t.Helper()
	store, report, err := ReadArchive(strings.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	var reasons []string
	for _, c := range report.Quarantined {
		reasons = append(reasons, c.Reason)
	}
	return store.Len(), strings.Join(reasons, "; ")
}

// The TestReadTSV tests check how the TSV lines of a section — its header
// and its records — are read. ReadArchive is the one reader; the sections
// are sealed with matching trailers so that only those lines decide.

func TestReadTSVRecordCountMismatch(t *testing.T) {
	// The header declares 2 records but only 1 survives — a torn write
	// must be quarantined, not read as a silently shorter day.
	torn := "#snapshot\t2016-01-01\t2\na.com\tcom\top\tns1.op.net\ttrue\ttrue\ttrue\ttrue\tok\n"
	if n, reasons := quarantines(t, sealed(torn)); n != 0 || !strings.Contains(reasons, "record count mismatch") {
		t.Errorf("count mismatch: %d snapshot(s), quarantined %q", n, reasons)
	}
	// A headerless count (hand-written archive) is still tolerated.
	loose := "#snapshot\t2016-01-01\na.com\tcom\top\tns1.op.net\ttrue\ttrue\ttrue\ttrue\tok\n"
	if n, reasons := quarantines(t, sealed(loose)); n != 1 || reasons != "" {
		t.Errorf("countless header: %d snapshot(s), quarantined %q", n, reasons)
	}
	// Mismatch on the final section is caught too, and costs the first
	// section nothing.
	first := "#snapshot\t2016-01-01\t1\na.com\tcom\top\t\ttrue\ttrue\ttrue\ttrue\tok\n"
	if n, reasons := quarantines(t, sealed(first)+sealed("#snapshot\t2016-06-01\t3\n")); n != 1 || !strings.Contains(reasons, "record count mismatch") {
		t.Errorf("trailing count mismatch: %d snapshot(s), quarantined %q", n, reasons)
	}
}

func TestReadTSVDuplicateDayRejected(t *testing.T) {
	section := sealed("#snapshot\t2016-01-01\t1\na.com\tcom\top\tns1.op.net\ttrue\ttrue\ttrue\ttrue\tok\n")
	if n, reasons := quarantines(t, section+section); n != 1 || !strings.Contains(reasons, "duplicate snapshot day") {
		t.Errorf("duplicate day: %d snapshot(s), quarantined %q", n, reasons)
	}
}

func TestReadTSVErrors(t *testing.T) {
	cases := []struct{ archive, reason string }{
		{"a.com\tcom\top\tns\ttrue\ttrue\ttrue\ttrue\tok\n", "records outside any section"},
		{sealed("#snapshot\n"), "bad header"},                                                            // missing day
		{sealed("#snapshot\tnot-a-date\t1\n"), "bad header"},                                             // bad day
		{sealed("#snapshot\t2016-01-01\t1\na.com\tcom\top\n"), "3 fields"},                               // short record
		{sealed("#snapshot\t2016-01-01\t1\na\tcom\top\tns\tx\tt\tt\tt\tok\n"), "bad bool"},               // bad bool
		{"#snapshot\t2016-01-01\t1\na\tcom\top\tns\tt\tt\tt\tt\tok\n", "truncated section (no trailer)"}, // never sealed
	}
	for i, c := range cases {
		if n, reasons := quarantines(t, c.archive); n != 0 || !strings.Contains(reasons, c.reason) {
			t.Errorf("case %d: %d snapshot(s), quarantined %q, want %q", i, n, reasons, c.reason)
		}
	}
	// Empty input yields an empty store and nothing to quarantine.
	if n, reasons := quarantines(t, ""); n != 0 || reasons != "" {
		t.Errorf("empty input: %d snapshot(s), quarantined %q", n, reasons)
	}
}
