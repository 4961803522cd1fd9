package checkpoint

import (
	"bytes"
	"compress/gzip"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"testing"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// FuzzLoadChunk feeds LoadChunk arbitrary file bytes under an arbitrary
// ledger entry. It must never panic, and it accepts exactly when all three
// checks agree: the bytes' CRC32C is the recorded one, the bytes are a
// strictly valid archive holding the day, and the day's record count is the
// recorded one; a file in the text form is refused as a text archive.
// Seeded from a real chunk file, its text form, and near misses of both.
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
	real, err := os.ReadFile(filepath.Join(cp.Dir(), meta.File))
	if err != nil {
		f.Fatal(err)
	}
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

	const name = "fuzzed.tsv"
	f.Fuzz(func(t *testing.T, data []byte, crc uint32, records int) {
		if err := os.WriteFile(filepath.Join(cp.Dir(), name), data, 0o644); err != nil {
			t.Fatal(err)
		}
		snap, err := cp.LoadChunk(day, &Shard{File: name, CRC: crc, Records: records})

		want := crc32.Checksum(data, castagnoli) == crc
		if store, serr := dataset.ReadArchiveStrict(bytes.NewReader(data)); serr != nil || store.Get(day) == nil {
			want = false
		} else if len(store.Get(day).Records) != records {
			want = false
		}
		if (err == nil) != want {
			t.Fatalf("LoadChunk err %v, but CRC, trailer and count agree = %v", err, want)
		}
		if text := bytes.HasPrefix(data, []byte("#snapshot\t")); text != errors.Is(err, dataset.ErrTextArchive) {
			t.Fatalf("LoadChunk err %v of a file that is a text archive: %v", err, text)
		}
		if err == nil && len(snap.Records) != records {
			t.Fatalf("accepted %d records under a ledger entry of %d", len(snap.Records), records)
		}
	})
}
