package dataset

import (
	"bytes"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/simtime"
)

// TestFrontCoding pins the coder: the longest shared prefix up to 26 bytes
// as one marker, a plain name where nothing is shared, and each coding read
// back to its name after the name before.
func TestFrontCoding(t *testing.T) {
	long := strings.Repeat("x", 30)
	for _, c := range []struct{ prev, name, coded string }{
		{"", "a.com", "a.com"},
		{"a.com", "b.com", "b.com"},
		{"alpha.com", "alphabet.com", "Ebet.com"},
		{"d0000041-x.com", "d0000049-x.com", "G9-x.com"},
		{"abc.com", "abc", "C"},
		{long + ".com", long + ".net", "Z" + long[26:] + ".net"},
	} {
		coded := AppendFrontCoded(nil, []byte(c.prev), []byte(c.name))
		if string(coded) != c.coded || FrontCodedLen([]byte(c.prev), []byte(c.name)) != len(c.coded) {
			t.Errorf("%q after %q codes as %q (length %d), want %q", c.name, c.prev, coded, FrontCodedLen([]byte(c.prev), []byte(c.name)), c.coded)
		}
		k, rest, err := SplitFrontCoded(coded, len(c.prev))
		if err != nil || c.prev[:k]+string(rest) != c.name {
			t.Errorf("%q after %q reads as %q, %v", coded, c.prev, c.prev[:k]+string(rest), err)
		}
	}
	if _, _, err := SplitFrontCoded([]byte("Db.com"), 3); err == nil {
		t.Error("a marker for 4 bytes after a name of 3 reads")
	}
}

// TestSectionFrontCodesDomains: a section's record lines front-code their
// domains, capped at 26 shared bytes, and read back to the records; a
// domain that starts with a marker is refused.
func TestSectionFrontCodesDomains(t *testing.T) {
	long := strings.Repeat("sub-", 10)
	snap := &Snapshot{Day: simtime.End, Records: []Record{
		{Domain: "alpha.com", TLD: "com"},
		{Domain: "alphabet.com", TLD: "com"},
		{Domain: long + "a.com", TLD: "com"},
		{Domain: long + "b.com", TLD: "com"},
		{Domain: "zulu.com", TLD: "com"},
	}}
	var section bytes.Buffer
	if err := snap.WriteArchiveSection(&section); err != nil {
		t.Fatal(err)
	}
	want := "#snapshot\t2016-12-31\t5\n" +
		"alpha.com\t\n" +
		"Ebet.com\t\n" +
		long + "a.com\t\n" +
		"Z" + long[26:] + "b.com\t\n" +
		"zulu.com\t\n"
	if got := string(archivetest.Zcat(t, section.Bytes())); got != archivetest.SealText(want) {
		t.Fatalf("section:\n%s\nwant:\n%s", got, archivetest.SealText(want))
	}
	checkRerenders(t, snap)

	bad := &Snapshot{Day: simtime.End, Records: []Record{{Domain: "Alpha.com", TLD: "com"}}}
	if err := bad.WriteArchiveSection(&section); err == nil || !strings.Contains(err.Error(), "front-coded") {
		t.Errorf("a domain starting with a marker: %v, want a refusal", err)
	}
}
