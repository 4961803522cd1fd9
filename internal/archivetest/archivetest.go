// Package archivetest is test support for the archive's bytes: gzip
// members and the text they hold, sections sealed by hand, and the files
// tests keep them in. Its Read, Write and Append are every package's test
// file I/O, archive or not. It imports no package of the module, so
// dataset's own tests use it as every other package's tests do.
package archivetest

import (
	"bytes"
	"compress/gzip"
	_ "embed"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"
	"testing"
)

// Header is the fixed header every member of an archive, and the
// observatory's world file, starts with: the gzip magic, deflate, no flags,
// no modification time, XFL 4 and OS 255 (unknown).
var Header = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 0xff}

// PlainArchive is an archive written before domain names were front-coded:
// every record line starts with its domain in full. Its two sections hold
// NS-set references, failed records and explicit TLD and operator columns;
// plainArchiveDays in dataset's tests are the records it read to then.
//
//go:embed testdata/plain-archive.tsv
var PlainArchive []byte

// FrontArchive is an archive of three sections written when every section
// was self-contained, its domains front-coded, with NS-set references and
// signed and failed records; frontArchiveDays in dataset's tests are the
// records it read to then.
//
//go:embed testdata/front-archive.tsv
var FrontArchive []byte

// PlainWorld is the observatory's world file after it ingested PlainArchive
// to its end, written before front coding: NAMELINE holds every name in
// full. Saved in the mapped form, its index is PlainWorldMapped.
//
//go:embed testdata/plain-world.colstore
var PlainWorld []byte

// PlainWorldMapped is the SHA-256 of PlainWorld's index and META saved in the
// mapped form (colstore.Index.SaveFile), which front coding leaves as it was.
const PlainWorldMapped = "3ca2102581b63dd506d819fd45622eef6dc5385e98a2169012ea35d42671d485"

// Deflater deflates members with one compressor, reset between them: an
// exhaustive test deflates thousands of members, and building a compressor
// costs more than deflating a section with it. The zero value is ready.
type Deflater struct {
	buf bytes.Buffer
	zw  *gzip.Writer
}

// Member returns text as one gzip member starting with Header, as
// gzip.BestSpeed writes one, its bytes valid until the next call.
func (d *Deflater) Member(text []byte) []byte {
	d.buf.Reset()
	if d.zw == nil {
		d.zw, _ = gzip.NewWriterLevel(&d.buf, gzip.BestSpeed) // errs only on a bad level
	} else {
		d.zw.Reset(&d.buf)
	}
	d.zw.Write(text) // writes to a bytes.Buffer do not fail
	d.zw.Close()
	return d.buf.Bytes()
}

// Deflate is text as one gzip member.
func Deflate(text []byte) []byte {
	var d Deflater
	return d.Member(text)
}

// Zcat is what zcat prints of archive bytes: the text of every member, in
// order.
func Zcat(t testing.TB, archive []byte) []byte {
	t.Helper()
	zr, err := gzip.NewReader(bytes.NewReader(archive))
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	return text
}

// Members splits archive bytes into their gzip members, one a section.
func Members(t testing.TB, archive []byte) [][]byte {
	t.Helper()
	r := bytes.NewReader(archive)
	var zr gzip.Reader
	var members [][]byte
	for r.Len() > 0 {
		start := len(archive) - r.Len()
		if err := zr.Reset(r); err != nil {
			t.Fatal(err)
		}
		zr.Multistream(false)
		if _, err := io.Copy(io.Discard, &zr); err != nil {
			t.Fatal(err)
		}
		members = append(members, archive[start:len(archive)-r.Len()])
	}
	return members
}

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// SealText closes a hand-written section body — its header line and record
// lines — with the trailer that matches it, so that what a reader makes of
// the section depends on those lines alone.
func SealText(body string) string {
	day := ""
	if header := strings.Split(strings.SplitN(body, "\n", 2)[0], "\t"); len(header) >= 2 {
		day = header[1]
	}
	return body + fmt.Sprintf("#end\t%s\t%d\t%08x\n", day, len(body), crc32.Checksum([]byte(body), castagnoli))
}

// Seal is SealText deflated into one member, as the writer writes a
// section.
func Seal(body string) string {
	return string(Deflate([]byte(SealText(body))))
}

// Section is what an archive is written of: dataset.Snapshot.
type Section interface {
	WriteArchiveSection(w io.Writer) error
}

// Archive is the archive of snaps as the sweep writes one: a section each,
// in order.
func Archive[S Section](t testing.TB, snaps ...S) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, s := range snaps {
		if err := s.WriteArchiveSection(&buf); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// Read returns the contents of the file at path.
func Read(t testing.TB, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// Write replaces the file at path with chunks.
func Write(t testing.TB, path string, chunks ...[]byte) {
	t.Helper()
	write(t, path, os.O_TRUNC, chunks)
}

// Append appends chunks to the file at path, creating it if need be.
func Append(t testing.TB, path string, chunks ...[]byte) {
	t.Helper()
	write(t, path, os.O_APPEND, chunks)
}

func write(t testing.TB, path string, flag int, chunks [][]byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|flag, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range chunks {
		if _, err := f.Write(c); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}
