package checkpoint

import (
	"bytes"
	"compress/gzip"
	"errors"
	"hash/crc32"
	"io"
	"path/filepath"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// FuzzLoadChunk feeds a chunk file arbitrary bytes and reads it both ways:
// under an arbitrary manifest entry (LoadChunk) and by its name (ReadChunk).
// Neither may panic. LoadChunk accepts exactly when all three checks agree:
// the bytes' CRC32C is the recorded one, the bytes are one strictly valid
// section, of the chunk's day, and its record count is the recorded one.
// ReadChunk accepts exactly the bytes LoadChunk accepts under their own CRC
// and count, and returns that CRC and count. A file in the text form is
// refused as a text archive by both. Seeded from a real chunk file, its
// text form, and near misses of both.
func FuzzLoadChunk(f *testing.F) {
	day := simtime.Date(2016, 3, 1)
	cp, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	meta, err := cp.WriteChunk(day, 0, 0, "w1", testSnapshot(day))
	if err != nil {
		f.Fatal(err)
	}
	real := archivetest.Read(f, filepath.Join(cp.Dir(), meta.File))
	flipped := bytes.Clone(real)
	flipped[len(flipped)/2] ^= 0x01
	f.Add(real, meta.CRC, meta.Records)
	f.Add(real, meta.CRC, meta.Records+1)
	f.Add(real, meta.CRC^1, meta.Records)
	f.Add(flipped, meta.CRC, meta.Records)
	f.Add(flipped, crc32.Checksum(flipped, castagnoli), meta.Records)
	f.Add(real[:len(real)-4], crc32.Checksum(real[:len(real)-4], castagnoli), meta.Records)
	f.Add(append(bytes.Clone(real), real...), uint32(0), 2*meta.Records)
	f.Add([]byte{}, uint32(0), 0)
	// The text form an earlier writer left as a chunk file, whole and cut,
	// and mixed with the member form in either order: refused.
	zr, err := gzip.NewReader(bytes.NewReader(real))
	if err != nil {
		f.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(text, crc32.Checksum(text, castagnoli), meta.Records)
	f.Add(text[:len(text)-4], crc32.Checksum(text[:len(text)-4], castagnoli), meta.Records)
	f.Add(append(bytes.Clone(text), real...), uint32(0), 2*meta.Records)
	f.Add(append(bytes.Clone(real), text...), uint32(0), 2*meta.Records)
	// A second verified section, of another day, after the chunk's own; and
	// another day's section alone.
	var next bytes.Buffer
	if err := testSnapshot(day + 1).WriteArchiveSection(&next); err != nil {
		f.Fatal(err)
	}
	twoDays := append(bytes.Clone(real), next.Bytes()...)
	f.Add(twoDays, crc32.Checksum(twoDays, castagnoli), meta.Records)
	f.Add(next.Bytes(), crc32.Checksum(next.Bytes(), castagnoli), meta.Records)

	f.Fuzz(func(t *testing.T, data []byte, crc uint32, records int) {
		archivetest.Write(t, filepath.Join(cp.Dir(), meta.File), data)
		snap, err := cp.LoadChunk(day, &Shard{File: meta.File, CRC: crc, Records: records})

		own := crc32.Checksum(data, castagnoli)
		store, serr := dataset.ReadArchiveStrict(bytes.NewReader(data))
		valid := serr == nil && store.Len() == 1 && store.Get(day) != nil
		count := -1
		if valid {
			count = len(store.Get(day).Records)
		}
		if want := valid && own == crc && count == records; (err == nil) != want {
			t.Fatalf("LoadChunk err %v, but CRC, trailer and count agree = %v", err, want)
		}
		text := bytes.HasPrefix(data, []byte("#snapshot\t"))
		if text != errors.Is(err, dataset.ErrTextArchive) {
			t.Fatalf("LoadChunk err %v of a file that is a text archive: %v", err, text)
		}
		if err == nil && len(snap.Records) != records {
			t.Fatalf("accepted %d records under a manifest entry of %d", len(snap.Records), records)
		}

		_, got, rerr := cp.ReadChunk(day, 0, 0, "w1")
		if (rerr == nil) != valid {
			t.Fatalf("ReadChunk err %v, but the file is one valid section of its day = %v", rerr, valid)
		}
		if text != errors.Is(rerr, dataset.ErrTextArchive) {
			t.Fatalf("ReadChunk err %v of a file that is a text archive: %v", rerr, text)
		}
		if rerr == nil {
			if got.File != meta.File || got.CRC != own || got.Records != count {
				t.Fatalf("ReadChunk entry %+v, want file %s, CRC %08x, %d records", got, meta.File, own, count)
			}
			if _, err := cp.LoadChunk(day, got); err != nil {
				t.Fatalf("LoadChunk refuses the entry ReadChunk returned: %v", err)
			}
		}
	})
}
