package checkpoint

import (
	"bytes"
	"compress/gzip"
	"errors"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

func TestChunkWriteLoadRoundTrip(t *testing.T) {
	cp := openTestStore(t)
	day := simtime.Date(2016, 3, 1)
	snap := testSnapshot(day)
	meta, err := cp.WriteChunk(day, 2, 7, "", snap)
	if err != nil {
		t.Fatal(err)
	}
	if meta.File != "day-2016-03-01-shard-002-chunk-00007.tsv" {
		t.Errorf("chunk file name: %q", meta.File)
	}
	got, err := cp.LoadChunk(day, meta)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, snap.Records) {
		t.Errorf("records differ after round trip")
	}

	// Corruption is detected.
	path := filepath.Join(cp.Dir(), meta.File)
	data, _ := os.ReadFile(path)
	data[len(data)/2] ^= 0xff
	archivetest.Write(t, path, data)
	if _, err := cp.LoadChunk(day, meta); err == nil {
		t.Error("corrupt chunk loaded without error")
	}
}

// readAs reads both chunks of a two-chunk shard by name, as one owner, and
// returns the entries of those that verify and the chunks found damaged.
func readAs(cp *Store, day simtime.Day, owner string) (map[int]*Shard, []int) {
	found := map[int]*Shard{}
	var damaged []int
	for c := 0; c < 2; c++ {
		_, meta, err := cp.ReadChunk(day, 0, c, owner)
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			damaged = append(damaged, c)
		default:
			found[c] = meta
		}
	}
	return found, damaged
}

func TestChunkOwnerTaggedLoad(t *testing.T) {
	cp := openTestStore(t)
	day := simtime.Date(2016, 3, 2)
	snap := testSnapshot(day)

	// Never written → nothing found, nothing damaged.
	if found, damaged := readAs(cp, day, "w1"); len(found) != 0 || len(damaged) != 0 {
		t.Fatalf("empty directory: found %v, damaged %v", found, damaged)
	}

	meta, err := cp.WriteChunk(day, 0, 1, "w1", snap)
	if err != nil {
		t.Fatal(err)
	}
	// The owner's file comes back under the metadata its writer was handed
	// (the CRC is computed from the bytes read), and loads by it.
	found, damaged := readAs(cp, day, "w1")
	if len(damaged) != 0 || len(found) != 1 || !reflect.DeepEqual(found[1], meta) {
		t.Fatalf("found %+v (damaged %v), want chunk 1 = %+v", found, damaged, meta)
	}
	got, err := cp.LoadChunk(day, found[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, snap.Records) {
		t.Errorf("records differ after owner-tagged round trip")
	}
	// Another owner's name does not collide.
	if found, _ := readAs(cp, day, "w2"); len(found) != 0 {
		t.Fatalf("w2 found w1's chunk: %+v", found)
	}

	// Trailer damage is detected without a recorded CRC.
	path := filepath.Join(cp.Dir(), meta.File)
	data, _ := os.ReadFile(path)
	archivetest.Write(t, path, data[:len(data)-4])
	if found, damaged := readAs(cp, day, "w1"); len(found) != 0 || !reflect.DeepEqual(damaged, []int{1}) {
		t.Errorf("truncated owner chunk: found %v, damaged %v", found, damaged)
	}
}

// TestTextChunkRescanned: a chunk file in the text form, as written before
// each section became a gzip member, is refused by LoadChunk even under the
// CRC of its own bytes, and ReadChunk reports it damaged, so its chunk is
// scanned again.
func TestTextChunkRescanned(t *testing.T) {
	cp := openTestStore(t)
	day := simtime.Date(2016, 3, 3)
	meta, err := cp.WriteChunk(day, 0, 0, "w1", testSnapshot(day))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cp.Dir(), meta.File)
	data := archivetest.Read(t, path)
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	archivetest.Write(t, path, text)
	textMeta := &Shard{File: meta.File, CRC: crc32.Checksum(text, castagnoli), Records: meta.Records}
	if _, err := cp.LoadChunk(day, textMeta); !errors.Is(err, dataset.ErrTextArchive) {
		t.Errorf("LoadChunk of a text chunk: %v, want ErrTextArchive", err)
	}
	if found, damaged := readAs(cp, day, "w1"); len(found) != 0 || !reflect.DeepEqual(damaged, []int{0}) {
		t.Errorf("a text chunk: found %v, damaged %v; want chunk 0 re-scanned", found, damaged)
	}
}

// TestAppendUnit walks a finished unit's manifest: every chunk verified and
// emitted in chunk order, and a chunk that is unrecorded, missing, damaged
// or miscounted named in a *ChunkError instead.
func TestAppendUnit(t *testing.T) {
	cp := openTestStore(t)
	day := simtime.Date(2016, 3, 4)
	snaps := []*dataset.Snapshot{
		{Day: day, Records: []dataset.Record{{Domain: "a.com", TLD: "com"}, {Domain: "b.com", TLD: "com"}}},
		{Day: day},
		{Day: day, Records: []dataset.Record{{Domain: "c.com", TLD: "com", Failed: true, FailReason: "timeout"}}},
	}
	manifest := NewChunkProgress(2, 5)
	for c, snap := range snaps {
		var err error
		if manifest.Done[c], err = cp.WriteChunk(day, 0, c, "w1", snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := manifest.WellFormed(2); err != nil {
		t.Fatal(err)
	}
	var got []string
	collect := func(recs ...dataset.Record) error {
		for _, r := range recs {
			got = append(got, r.Domain)
		}
		return nil
	}
	if err := cp.AppendUnit(day, manifest, collect); err != nil {
		t.Fatal(err)
	}
	if want := []string{"a.com", "b.com", "c.com"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("appended %v, want %v", got, want)
	}

	// An emit error comes back as it is, not as chunk damage.
	boom := errors.New("disk full")
	if err := cp.AppendUnit(day, manifest, func(...dataset.Record) error { return boom }); err != boom {
		t.Errorf("emit error: %v", err)
	}

	wantChunkErr := func(what string, chunk int, err error) {
		t.Helper()
		var bad *ChunkError
		if !errors.As(err, &bad) || bad.Chunk != chunk {
			t.Errorf("%s: err %v, want a ChunkError for chunk %d", what, err, chunk)
		}
	}
	nop := func(...dataset.Record) error { return nil }
	saved := *manifest.Done[2]
	manifest.Done[2].Records++
	wantChunkErr("miscounted", 2, cp.AppendUnit(day, manifest, nop))
	manifest.Done[2].Records--
	manifest.Done[2].CRC ^= 1
	wantChunkErr("wrong CRC", 2, cp.AppendUnit(day, manifest, nop))
	*manifest.Done[2] = saved
	if err := os.Remove(filepath.Join(cp.Dir(), manifest.Done[1].File)); err != nil {
		t.Fatal(err)
	}
	wantChunkErr("deleted file", 1, cp.AppendUnit(day, manifest, nop))
	delete(manifest.Done, 0)
	wantChunkErr("unrecorded", 0, cp.AppendUnit(day, manifest, nop))
	if err := manifest.WellFormed(2); err == nil {
		t.Error("manifest missing a chunk is well-formed")
	}
}

// TestWellFormed: what a manifest from outside the process must satisfy.
func TestWellFormed(t *testing.T) {
	ok := func() *ChunkProgress {
		m := NewChunkProgress(2, 3)
		m.Done[0], m.Done[1] = &Shard{File: "a.tsv"}, &Shard{File: "b.tsv"}
		return m
	}
	if err := ok().WellFormed(2); err != nil {
		t.Fatal(err)
	}
	if err := NewChunkProgress(7, 0).WellFormed(7); err != nil {
		t.Errorf("empty unit: %v", err)
	}
	for name, mutate := range map[string]func(*ChunkProgress){
		"other chunk size": func(m *ChunkProgress) { m.Chunk = 3 },
		"negative targets": func(m *ChunkProgress) { m.Targets = -1 },
		"chunk count lies": func(m *ChunkProgress) { m.Chunks = 1; delete(m.Done, 1) },
		"huge chunk count": func(m *ChunkProgress) { m.Chunks = 1 << 60 },
		"extra chunk":      func(m *ChunkProgress) { m.Done[2] = &Shard{File: "c.tsv"} },
		"nil chunk":        func(m *ChunkProgress) { m.Done[1] = nil },
		"wrong index":      func(m *ChunkProgress) { m.Done[5] = m.Done[1]; delete(m.Done, 1) },
	} {
		m := ok()
		mutate(m)
		if err := m.WellFormed(2); err == nil {
			t.Errorf("%s: accepted %+v", name, m)
		}
	}
}

// TestChunkShardGeometry: the chunk geometry a header's chunk size cuts a
// shard into, and the manifest it must fill.
func TestChunkShardGeometry(t *testing.T) {
	h := &Header{Fingerprint: "fp", Shards: 1, Chunk: 10, Targets: 25}
	cp := NewChunkProgress(h.Chunk, h.Targets)
	if cp.Chunks != 3 || cp.Chunk != 10 || cp.Targets != 25 {
		t.Fatalf("geometry: %+v", cp)
	}
	if cp.WellFormed(h.Chunk) == nil {
		t.Error("empty progress reported well-formed")
	}
	cp.Done[0], cp.Done[1], cp.Done[2] = &Shard{File: "a"}, &Shard{File: "b"}, &Shard{File: "c"}
	if err := cp.WellFormed(h.Chunk); err != nil {
		t.Errorf("full progress: %v", err)
	}
	if cp.WellFormed(8) == nil {
		t.Error("progress of another chunk size reported well-formed")
	}
	// Empty shard has zero chunks and is trivially complete.
	if empty := NewChunkProgress(h.Chunk, 0); empty.Chunks != 0 || empty.WellFormed(h.Chunk) != nil {
		t.Errorf("empty shard: %+v", empty)
	}
}

// TestChunkOfOneSectionOfItsDay: a chunk file is exactly one verified
// section, of the chunk's day. A file that also carries a verified section
// of another day, or holds only another day's, is damaged — read by name
// or under the CRC and count of its own bytes.
func TestChunkOfOneSectionOfItsDay(t *testing.T) {
	cp := openTestStore(t)
	day := simtime.Date(2016, 3, 5)
	meta, err := cp.WriteChunk(day, 0, 0, "", testSnapshot(day))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cp.Dir(), meta.File)
	own := archivetest.Read(t, path)
	var next bytes.Buffer
	if err := testSnapshot(day + 1).WriteArchiveSection(&next); err != nil {
		t.Fatal(err)
	}
	for name, data := range map[string][]byte{
		"extra section": append(bytes.Clone(own), next.Bytes()...),
		"another day":   next.Bytes(),
	} {
		archivetest.Write(t, path, data)
		if _, _, err := cp.ReadChunk(day, 0, 0, ""); err == nil {
			t.Errorf("%s: read by name", name)
		}
		if _, err := cp.LoadChunk(day, &Shard{File: meta.File, CRC: crc32.Checksum(data, castagnoli), Records: meta.Records}); err == nil {
			t.Errorf("%s: loaded under its own CRC", name)
		}
	}
}

func TestClearRemovesChunkFiles(t *testing.T) {
	cp := openTestStore(t)
	day := simtime.Date(2016, 3, 3)
	if _, err := cp.WriteChunk(day, 0, 0, "", testSnapshot(day)); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.WriteChunk(day, 0, 1, "w1", testSnapshot(day)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Save(&Header{Fingerprint: "fp"}); err != nil {
		t.Fatal(err)
	}
	if err := cp.Clear(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(cp.Dir())
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		t.Errorf("left behind after Clear: %s", e.Name())
	}
}
