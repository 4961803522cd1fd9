package dataset_test

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"fmt"
	"io"
	"runtime"
	"testing"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// scanAllocBound is what a reader may allocate refusing a hostile section,
// beyond the file's own size (the checkpoint's chunk reader reads a chunk
// file whole): a few of the scanner's buffers, far below what the section
// inflates to, and below what holding a line of 1 MiB would cost.
const scanAllocBound = 1 << 20

// TestScannerBounded: a reader holds neither a line longer than any valid
// one nor records past the count its section's header declares. A member
// whose text is a 256 MiB line and a member that declares one record and
// holds a million are each refused by
// ReadArchive, TailArchive and the checkpoint's chunk reader, each of
// which allocates less than scanAllocBound beyond the file's size.
func TestScannerBounded(t *testing.T) {
	day := simtime.Date(2016, 1, 1)
	header := fmt.Sprintf("#snapshot\t%s\t1\n", day)
	trailer := fmt.Sprintf("#end\t%s\t0\t00000000\n", day)
	longLine := func(w io.Writer, n int) {
		io.WriteString(w, header+"a.com\t")
		chunk := bytes.Repeat([]byte{'x'}, 1<<20)
		for ; n > 0; n -= len(chunk) {
			w.Write(chunk[:min(n, len(chunk))])
		}
		io.WriteString(w, "\n"+trailer)
	}
	member := func(write func(w io.Writer)) []byte {
		var buf bytes.Buffer
		zw, err := gzip.NewWriterLevel(&buf, gzip.BestSpeed)
		if err != nil {
			t.Fatal(err)
		}
		bw := bufio.NewWriterSize(zw, 1<<20) // a million lines in a few deflate writes
		write(bw)
		if err := bw.Flush(); err != nil {
			t.Fatal(err)
		}
		if err := zw.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, section := range map[string][]byte{
		"member of a 256 MiB line": member(func(w io.Writer) { longLine(w, 256<<20) }),
		"member of a million records, one declared": member(func(w io.Writer) {
			io.WriteString(w, header+"d0000000.com\tns1.op.net\n")
			line := []byte("d0000001.com\t=0\n") // d%07d.com, counted up in place
			for i := 1; i < 1e6; i++ {
				w.Write(line)
				for k := 7; ; k-- {
					if line[k]++; line[k] <= '9' {
						break
					}
					line[k] = '0'
				}
			}
			io.WriteString(w, trailer)
		}),
	} {
		for reader, read := range sectionReaders(t) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			got, err := read(section, &dataset.Snapshot{Day: day, Records: make([]dataset.Record, 1)})
			runtime.ReadMemStats(&after)
			if err == nil && got != nil {
				t.Errorf("%s: %s read %d record(s)", name, reader, len(got.Records))
			}
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(scanAllocBound+len(section)) {
				t.Errorf("%s: %s allocated %d bytes refusing a %d-byte section, bound %d beyond its size", name, reader, alloc, len(section), scanAllocBound)
			} else {
				t.Logf("%s (%d bytes): %s allocated %d bytes", name, len(section), reader, alloc)
			}
		}
	}
}
