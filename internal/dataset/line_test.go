package dataset

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/simtime"
)

// TestRecordLineForm pins today's record line: the domain and NS hosts, then
// the flags, status, TLD and operator up to the last that is not empty —
// the TLD and operator only where the reader cannot derive them.
func TestRecordLineForm(t *testing.T) {
	for _, tc := range []struct {
		rec  Record
		line string
	}{
		{Record{Domain: "a.com", TLD: "com", NSHosts: []string{"ns1.op.net", "ns2.op.net"}, Operator: "op.net"},
			"a.com\tns1.op.net,ns2.op.net\n"},
		{Record{Domain: "a.com", TLD: "com", NSHosts: []string{"ns1.op.net", "ns2.op.net"}, Operator: "op.net", HasDNSKEY: true, HasDS: true},
			"a.com\tns1.op.net,ns2.op.net\tkd\n"},
		{Record{Domain: "a.co.uk", TLD: "co.uk", NSHosts: []string{"ns1.tail0001.uk-hosting.example"}, Operator: "tail0001.uk-hosting.example"},
			"a.co.uk\tns1.tail0001.uk-hosting.example\t\t\tco.uk\ttail0001.uk-hosting.example\n"},
		{Record{Domain: "a.com", TLD: "com", NSHosts: []string{"ns1.op.net"}, Operator: "cohort", HasDNSKEY: true},
			"a.com\tns1.op.net\tk\t\t\tcohort\n"},
		{Record{Domain: "a.co.uk", TLD: "co.uk", NSHosts: []string{"ns1.op.net"}, Operator: "op.net"},
			"a.co.uk\tns1.op.net\t\t\tco.uk\n"},
		{Record{Domain: "b.com", TLD: "com", NSHosts: []string{"ns-5.awsdns-01.org"}, Operator: "awsdns", HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true},
			"b.com\tns-5.awsdns-01.org\tkrdv\n"},
		{Record{Domain: "b.com", TLD: "com", NSHosts: []string{"ns-5.awsdns-01.org"}, Operator: "awsdns", HasDNSKEY: true, HasRRSIG: true, ChainValid: true},
			"b.com\tns-5.awsdns-01.org\tkrv\n"},
		{Record{Domain: "gap.nl", TLD: "nl", Failed: true, FailReason: "timeout"}, "gap.nl\t\t\ttimeout\n"},
		{Record{Domain: "odd.nl", TLD: "nl", Failed: true}, "odd.nl\t\t\tfailed\n"},
		{Record{Domain: "lame.nl", TLD: "nl"}, "lame.nl\t\n"},
	} {
		if got := string(appendRecord(nil, &tc.rec)); got != tc.line {
			t.Errorf("%+v renders %q, want %q", tc.rec, got, tc.line)
		}
		if got := readLine(t, []byte(tc.line)); !reflect.DeepEqual(got, normalized(tc.rec)) {
			t.Errorf("%q reads as %+v, want %+v", tc.line, got, normalized(tc.rec))
		}
	}
}

// TestNonCanonicalLineRejected: a line in today's form reads only as the
// bytes its record renders to; every other spelling of it damages the
// section, and so does a field count outside 2–6, the nine fields of the
// older form included.
func TestNonCanonicalLineRejected(t *testing.T) {
	for line, reason := range map[string]string{
		"a.com":                                 "1 fields, want 2–6",
		"a.com\tns1.op.net\tk\t\t\tcohort\tx":   "7 fields, want 2–6",
		"a.com\t\t\tns1.op.net\t0\t0\t0\t0\tok": "9 fields, want 2–6",
		"\tns1.op.net":                          "empty domain",
		"a.com\tns1.op.net\t":                   "trailing empty field",
		"a.com\tns1.op.net\tk\t":                "trailing empty field",
		"a.com\tns1.op.net\t\t\t\t":             "trailing empty field",
		"a.com\tns1.op.net\trk":                 `bad flags "rk"`,
		"a.com\tns1.op.net\tkk":                 `bad flags "kk"`,
		"a.com\tns1.op.net\tK":                  `bad flags "K"`,
		"a.com\tns1.op.net\t1":                  `bad flags "1"`,
		"a.com\tns1.op.net\t\tok":               "explicit status ok",
		"a.com\tns1.op.net\t\t\tcom":            `TLD "com" is the derived one`,
		"a.com\tns1.op.net\t\t\t\top.net":       `operator "op.net" is the derived one`,
	} {
		if _, err := parseRecordFields(strings.Split(line, "\t"), &nsSets{}); err == nil || err.Error() != reason {
			t.Errorf("%q: %v, want %q", line, err, reason)
		}
	}
}

// TestMissingStatusIsMeasured: a line that stops before its status field is
// a measurement.
func TestMissingStatusIsMeasured(t *testing.T) {
	for line, failed := range map[string]bool{
		"a.com\tns1.op.net":            false,
		"a.com\tns1.op.net\tkrdv":      false,
		"a.com\tns1.op.net\t\ttimeout": true,
	} {
		if rec := readLine(t, []byte(line)); rec.Failed != failed {
			t.Errorf("%q reads as Failed=%v, want %v", line, rec.Failed, failed)
		}
	}
}

// TestRecordLineAllocs: rendering into a reused buffer allocates nothing,
// and reading a section back costs a fixed number of allocations a line
// (the line's string, its fields, its NS hosts, the growing record slice).
func TestRecordLineAllocs(t *testing.T) {
	recs := fakeRecords(1000, 5)
	for i := range recs {
		recs[i].Operator = GroupOperatorAll(recs[i].NSHosts)
	}
	line := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(10, func() {
		for i := range recs {
			line = appendRecord(line[:0], &recs[i])
		}
	}); n != 0 {
		t.Errorf("rendering %d records into a reused buffer allocates %v times", len(recs), n)
	}

	snap := &Snapshot{Day: simtime.End, Records: recs}
	snap.Canonicalize()
	var section bytes.Buffer
	if err := snap.WriteArchiveSection(&section); err != nil {
		t.Fatal(err)
	}
	const maxPerLine = 4
	n := testing.AllocsPerRun(10, func() {
		if _, err := ScanArchive(bytes.NewReader(section.Bytes()), func(*Snapshot) error { return nil }); err != nil {
			t.Fatal(err)
		}
	})
	if perLine := n / float64(len(recs)); perLine > maxPerLine {
		t.Errorf("reading a section allocates %.2f times a line, bound %d", perLine, maxPerLine)
	}
}

// FuzzRecordLine holds the record line to three round trips: any line the
// reader accepts renders to a line that reads back to the same Record, and
// that line is its own bytes; and a
// record built from the fuzzed fields survives render → read, up to the
// normalization Record documents (an empty TLD or operator reads back as
// its derivation) and the ones the line has always made (see normalized).
func FuzzRecordLine(f *testing.F) {
	for _, line := range []string{
		// The older nine-field form, which reads no longer.
		"old.com\tcom\top.net\tns1.op.net\ttrue\tfalse\tfalse\tfalse",
		"a.com\tcom\top\tns1.op.net\ttrue\ttrue\ttrue\ttrue\tok",
		"a.com\tcom\top\t\ttrue\ttrue\ttrue\ttrue\tok",
		"a.com\tcom\top.net\tns1.op.net\ttrue\tfalse\tfalse\tfalse",
		"a.com\tcom\top\tns\ttrue\ttrue\ttrue\ttrue\tok",
		"a\tcom\top\tns\tx\tt\tt\tt\tok",
		"a\tcom\top\tns\tt\tt\tt\tt\tok",
		"a.com\tcom\top\n",
		"gap.com\tcom\t\t\tfalse\tfalse\tfalse\tfalse\ttimeout",
		"a.com\t\t\tns1.op.net,ns2.op.net\t1\t0\t1\t0\tok",
		"a.co.uk\tco.uk\ttail0001.uk-hosting.example\tns1.tail0001.uk-hosting.example\t0\t0\t0\t0\tok",
		"gap.nl\t\t\t\t0\t0\t0\t0\ttimeout",
		"odd.nl\t\t\t\t0\t0\t0\t0\t",
		// awsdns and 1and1 hosts, grouped and not.
		"b.com\t\t\tns-5.awsdns-01.org,ns-9.awsdns-22.co.uk\t1\t1\t0\t1\tok",
		"b.com\tcom\tawsdns\tns-5.awsdns-01.org\ttrue\ttrue\tfalse\ttrue\tok",
		"c.de\t\t\tns-1and1.co.uk,ns.1and1.fr\t1\t1\t0\t0\tok",
		"c.de\tde\tawsdns-01.org\tns-5.awsdns-01.org\t1\t1\t0\t0\tok",
		"d.com.\t\tNS1.OVH.NET\tNS1.OVH.NET.,\t1\t0\t0\t0\tlame",
		// Today's form.
		"d0000063-domaincontro.com\tns1.domaincontrol.com",
		"a.com\tns1.op.net,ns2.op.net\tkrdv",
		"gap.nl\t\t\ttimeout",
		"a.co.uk\tns1.op.net\tkd\t\tco.uk\tcohort",
		"a.com\tns1.op.net\t\t\t\tcohort",
		"a.com\tns1.op.net\tdk",
		"a.com\tns1.op.net\t\tok",
		"lame.nl\t",
	} {
		f.Add(line)
	}
	f.Fuzz(func(t *testing.T, line string) {
		line = strings.TrimSuffix(line, "\n")
		if strings.Contains(line, "\n") {
			return
		}
		fields := strings.Split(line, "\t")
		if rec, err := parseRecordFields(fields, &nsSets{}); err == nil {
			rendered := appendRecord(nil, &rec)
			if again := readLine(t, rendered); !reflect.DeepEqual(again, rec) {
				t.Fatalf("%q reads as %+v, its rendering %q as %+v", line, rec, rendered, again)
			}
			if string(rendered) != line+"\n" {
				t.Fatalf("%q reads as %+v, which renders as %q", line, rec, rendered)
			}
		}

		// Any record the line can carry: a domain, no tab or newline in a
		// field, and hosts that LineCarriesHost accepts.
		fields = append(fields, make([]string, 9)...)
		rec := Record{Domain: fields[0], TLD: fields[1], Operator: fields[2],
			HasDNSKEY: fields[4] != "", HasRRSIG: fields[5] != "", HasDS: fields[6] != "", ChainValid: fields[7] != "",
			Failed: fields[8] != "", FailReason: fields[8]}
		if fields[3] != "" {
			rec.NSHosts = strings.Split(fields[3], ",")
		}
		if rec.Domain == "" || slices.ContainsFunc(rec.NSHosts, func(h string) bool { return !LineCarriesHost(h) }) {
			return
		}
		if got, want := readLine(t, appendRecord(nil, &rec)), normalized(rec); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v reads back as %+v, want %+v", rec, got, want)
		}
	})
}

// readLine reads one rendered line back, as the first line of a section.
func readLine(t *testing.T, line []byte) Record {
	t.Helper()
	rec, err := parseRecordFields(strings.Split(strings.TrimSuffix(string(line), "\n"), "\t"), &nsSets{})
	if err != nil {
		t.Fatalf("rendered line %q does not read back: %v", line, err)
	}
	return rec
}

// normalized is what rec reads back as: its TLD and operator derived when
// empty; and, as the line has always had it, a Failed record without a
// class as "failed", one whose class is "ok" as measured, and a measured
// record without a class.
func normalized(rec Record) Record {
	if rec.TLD == "" {
		rec.TLD = lastLabel(rec.Domain)
	}
	if rec.Operator == "" {
		rec.Operator = GroupOperatorAll(rec.NSHosts)
	}
	switch {
	case rec.Failed && rec.FailReason == "":
		rec.FailReason = "failed"
	case rec.Failed && rec.FailReason == "ok", !rec.Failed:
		rec.Failed, rec.FailReason = false, ""
	}
	return rec
}
