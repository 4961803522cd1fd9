package dataset

import (
	"math/rand"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
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

// awsdnsPattern and groupOperatorRegexp state the grouping rule the plain
// way — a regexp for Amazon's fleet, the labels split out for 1and1, the
// second level split and joined — as the oracle GroupOperator's one-pass
// scan is held to.
var awsdnsPattern = regexp.MustCompile(`(^|\.)awsdns-\d+\.[a-z.]+$`)

func groupOperatorRegexp(nsHost string) string {
	h := dnswire.CanonicalName(nsHost)
	if h == "" {
		return ""
	}
	if awsdnsPattern.MatchString(h) {
		return "awsdns"
	}
	labels := strings.Split(h, ".")
	for _, label := range labels {
		if label == "1and1" || strings.HasSuffix(label, "-1and1") {
			return "1and1"
		}
	}
	if len(labels) <= 2 {
		return h
	}
	return strings.Join(labels[len(labels)-2:], ".")
}

// TestGroupOperatorMatchesRegexp holds GroupOperator to the regexp oracle on
// the edge cases of its two special rules and on random names built from
// their pieces, and to no allocation on canonical names.
func TestGroupOperatorMatchesRegexp(t *testing.T) {
	hosts := []string{
		// Two awsdns-NN labels, only the second followed by [a-z.] alone.
		"a.awsdns-1x.awsdns-2.com", "awsdns-1.awsdns-2.c0m", "ns.awsdns-1.awsdns-x.com",
		// Digits, hyphens or uppercase after the label.
		"ns-1.awsdns-12.c0m", "ns-1.awsdns-12.co-uk", "ns-1.awsdns-12.COM", "ns-1.AWSDNS-12.com",
		"ns-1.awsdns-.com", "ns-1.awsdns-12", "awsdns-12.", "awsdns-12..", "awsdns-12...", "xawsdns-12.com",
		// A trailing dot.
		"ns-1.awsdns-12.net.", "ns1.ovh.net.", "ns1.ovh.net..",
		// 1and1 labels, and near misses.
		"ns-1and1.co.uk", "ns.1and1.fr", "-1and1.com", "1and1", "x1and1.com", "1and1x.com", "ns.1AND1.fr",
		// One and two labels, and the empty name.
		"com", "ovh.net", "", ".", "..", ".com", "a..b", "ns1..ovh.net",
	}
	r := rand.New(rand.NewSource(1))
	pieces := []string{"ns1", "awsdns-", "awsdns-7", "awsdns-42", "awsdns-4x", "1and1", "-1and1", "ns-1and1",
		"com", "co", "uk", "NET", "0", "-", "", "é", "ovh"}
	for i := 0; i < 20000; i++ {
		labels := make([]string, 1+r.Intn(5))
		for j := range labels {
			labels[j] = pieces[r.Intn(len(pieces))]
			if r.Intn(4) == 0 {
				labels[j] += pieces[r.Intn(len(pieces))]
			}
		}
		host := strings.Join(labels, ".")
		if r.Intn(5) == 0 {
			host += "."
		}
		hosts = append(hosts, host)
	}
	for _, h := range hosts {
		if got, want := GroupOperator(h), groupOperatorRegexp(h); got != want {
			t.Errorf("GroupOperator(%q) = %q, the regexp oracle %q", h, got, want)
		}
	}
	for _, h := range []string{"ns-123.awsdns-13.net", "ns-1and1.co.uk", "ns1.tail0001.com-hosting.example", "com", ""} {
		if n := testing.AllocsPerRun(100, func() { GroupOperator(h) }); n != 0 {
			t.Errorf("GroupOperator(%q) allocates %v times", h, n)
		}
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

// quarantineCase is a hand-written archive of members and what ReadArchive
// makes of it: how many snapshots it reads, and every reason it
// quarantines, joined. The TestReadTSV tests check how the TSV lines of a
// section — its header and its records — are read: hand-written sections
// are sealed with matching trailers so that only those lines decide. A
// reason ending in "…" is a prefix: what follows is another package's text.
type quarantineCase struct {
	name, archive string
	snapshots     int
	reasons       string
}

func checkQuarantines(t *testing.T, cases ...quarantineCase) {
	t.Helper()
	for _, c := range cases {
		n, reasons := quarantines(t, c.archive)
		want, prefix := strings.CutSuffix(c.reasons, "…")
		if n != c.snapshots || reasons != want && !(prefix && strings.HasPrefix(reasons, want)) {
			t.Errorf("%s: %d snapshot(s), quarantined %q; want %d, %q", c.name, n, reasons, c.snapshots, c.reasons)
		}
	}
}

// TestReadTSVRecordCountMismatch: a torn write — the header declares more
// records than survive — is quarantined, not read as a silently shorter
// day, on the final section too at no cost to the first; a header without
// a count is a bad header.
func TestReadTSVRecordCountMismatch(t *testing.T) {
	checkQuarantines(t,
		quarantineCase{"count mismatch", archivetest.Seal("#snapshot\t2016-01-01\t2\na.com\tns1.op.net\tkrdv\n"), 0, "record count mismatch: header declares 2, found 1"},
		quarantineCase{"countless header", archivetest.Seal("#snapshot\t2016-01-01\na.com\tns1.op.net\tkrdv\n"), 0, "bad header: bad snapshot header"},
		quarantineCase{"trailing count mismatch", archivetest.Seal("#snapshot\t2016-01-01\t1\na.com\t\tkrdv\n") + archivetest.Seal("#snapshot\t2016-06-01\t3\n"), 1, "record count mismatch: header declares 3, found 0"},
	)
}

// TestReadTSVDuplicateDayRejected: a day's second section is quarantined,
// hand-written or as the writer writes it.
func TestReadTSVDuplicateDayRejected(t *testing.T) {
	once := archivetest.Seal("#snapshot\t2016-01-01\t1\na.com\tns1.op.net\tkrdv\n")
	written := string(archivetest.Archive(t, &Snapshot{Day: simtime.Date(2016, 1, 1), Records: []Record{{Domain: "a.com", TLD: "com"}}}))
	checkQuarantines(t,
		quarantineCase{"hand-written", once + once, 1, "duplicate snapshot day"},
		quarantineCase{"as the writer writes it", written + written, 1, "duplicate snapshot day"},
	)
}

func TestReadTSVErrors(t *testing.T) {
	checkQuarantines(t,
		quarantineCase{"no member", "a.com\tns\tkrdv\n", 0, "bytes outside any gzip member"},
		quarantineCase{"missing day", archivetest.Seal("#snapshot\n"), 0, "bad header: bad snapshot header"},
		quarantineCase{"bad day", archivetest.Seal("#snapshot\tnot-a-date\t1\n"), 0, "bad header: simtime: …"},
		quarantineCase{"a day no Day holds", archivetest.Seal("#snapshot\t2400-01-01\t0\n"), 0, "bad header: simtime: 2400-01-01 is outside the range of a Day"},
		quarantineCase{"short record", archivetest.Seal("#snapshot\t2016-01-01\t1\na.com\n"), 0, "record 1: 1 fields, want 2–6"},
		quarantineCase{"too many fields", archivetest.Seal("#snapshot\t2016-01-01\t1\na.com\tns\tk\t\t\tcohort\tx\n"), 0, "record 1: 7 fields, want 2–6"},
		quarantineCase{"bad flags", archivetest.Seal("#snapshot\t2016-01-01\t1\na\tns\tx\n"), 0, `record 1: bad flags "x"`},
		quarantineCase{"never sealed", string(archivetest.Deflate([]byte("#snapshot\t2016-01-01\t1\na\tns\tkrdv\n"))), 0, "truncated section (no trailer)"},
		// Empty input yields an empty store and nothing to quarantine.
		quarantineCase{"empty input", "", 0, ""},
	)
}

// TestRecordWithoutStatusColumnRejected: a line of the older nine-field
// form cut before its status column must never read back as a measurement
// — both archive readers quarantine its section. The trailer matches the
// cut body: only the field count can catch it.
func TestRecordWithoutStatusColumnRejected(t *testing.T) {
	archive := archivetest.Seal("#snapshot\t2016-01-01\t1\nold.com\tcom\top.net\tns1.op.net\ttrue\tfalse\tfalse\tfalse\n")
	const reason = "record 1: 8 fields, want 2–6"
	checkQuarantines(t, quarantineCase{"ReadArchive", archive, 0, reason})
	path := filepath.Join(t.TempDir(), "cut.archive")
	archivetest.Write(t, path, []byte(archive))
	res, err := TailArchive(path, 0)
	if err != nil {
		t.Fatal(err)
	}
	if snaps := snapshotsOf(res); len(snaps) != 0 || len(res.Quarantined()) != 1 || res.Quarantined()[0].Reason != reason {
		t.Errorf("TailArchive: %d snapshots, quarantined %v", len(snaps), res.Quarantined())
	}
}

// quarantines reads a hand-written archive of members and returns how many
// snapshots it yielded and the reasons of everything quarantined, joined.
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
