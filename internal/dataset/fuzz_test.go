package dataset

import (
	"bytes"
	"testing"

	"securepki.org/registrarsec/internal/simtime"
)

// fuzzSeedArchive builds a small valid trailered archive for seeding.
func fuzzSeedArchive() []byte {
	store := NewStore()
	store.Add(&Snapshot{Day: simtime.Date(2016, 1, 1), Records: []Record{
		{Domain: "a.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net"},
			HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true},
		{Domain: "gap.com", TLD: "com", Failed: true, FailReason: "timeout"},
	}})
	store.Add(&Snapshot{Day: simtime.Date(2016, 6, 1), Records: []Record{
		{Domain: "a.com", TLD: "com", Operator: "op.net", NSHosts: nil},
	}})
	var buf bytes.Buffer
	if err := store.WriteArchive(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzReadTSV exercises both readers with arbitrary bytes: neither may
// panic, and whatever ReadArchive accepts must be internally consistent —
// re-serializing the salvaged store and re-reading it must verify clean
// with the same number of snapshots. A corrupted section that slipped into
// the store "as clean" would break that round trip.
func FuzzReadTSV(f *testing.F) {
	valid := fuzzSeedArchive()
	f.Add(valid)
	f.Add(valid[:len(valid)/2]) // torn mid-archive
	flipped := bytes.Clone(valid)
	flipped[len(flipped)/3] ^= 0x40 // bit rot
	f.Add(flipped)
	f.Add([]byte("#snapshot\t2016-01-01\t1\na.com\tcom\top.net\tns1.op.net\ttrue\tfalse\tfalse\tfalse\n"))
	f.Add([]byte("#snapshot\t2016-01-01\t2\na.com\tcom\top\t\ttrue\ttrue\ttrue\ttrue\tok\n"))
	f.Add([]byte("#end\t2016-01-01\t10\tdeadbeef\n"))
	f.Add([]byte(""))
	// The first record cut before its status column, trailer untouched.
	f.Add(bytes.Replace(valid, []byte("\ttrue\tok\n"), []byte("\ttrue\n"), 1))

	f.Fuzz(func(t *testing.T, data []byte) {
		// The legacy reader: errors are fine, panics are not; an accepted
		// store must round-trip through the plain TSV dialect.
		if store, err := ReadTSV(bytes.NewReader(data)); err == nil {
			var buf bytes.Buffer
			if err := store.WriteTSV(&buf); err != nil {
				t.Fatalf("re-serialize accepted TSV: %v", err)
			}
			again, err := ReadTSV(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatalf("re-read own TSV output: %v", err)
			}
			if again.Len() != store.Len() {
				t.Fatalf("TSV round trip changed snapshot count: %d -> %d", store.Len(), again.Len())
			}
		}

		// The salvage reader: never an error on in-memory bytes, never a
		// mislabeled section.
		store, report, err := ReadArchive(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("ReadArchive returned I/O error on bytes: %v", err)
		}
		if store.Len()+len(report.Quarantined) < report.Sections {
			t.Fatalf("sections unaccounted for: %d in store, %d quarantined, %d seen",
				store.Len(), len(report.Quarantined), report.Sections)
		}
		var buf bytes.Buffer
		if err := store.WriteArchive(&buf); err != nil {
			t.Fatalf("re-serialize salvaged store: %v", err)
		}
		again, report2, err := ReadArchive(bytes.NewReader(buf.Bytes()))
		if err != nil || !report2.Clean() {
			t.Fatalf("salvaged store did not re-read clean: %v, %s", err, report2)
		}
		if again.Len() != store.Len() {
			t.Fatalf("archive round trip changed snapshot count: %d -> %d", store.Len(), again.Len())
		}
	})
}
