package checkpoint

import (
	"bytes"
	"compress/gzip"
	"errors"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

func TestChunkWriteLoadRoundTrip(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
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
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.LoadChunk(day, meta); err == nil {
		t.Error("corrupt chunk loaded without error")
	}
}

// recoverAs runs RecoverChunks for one owner over a two-chunk shard and
// returns the rebuilt progress and the chunks reported damaged.
func recoverAs(cp *Store, day simtime.Day, owner string) (*ChunkProgress, []int) {
	prog := NewChunkProgress(2, 4)
	var damaged []int
	cp.RecoverChunks(day, 0, owner, prog, func(c, _ int, err error) {
		if err != nil {
			damaged = append(damaged, c)
		}
	})
	return prog, damaged
}

func TestChunkOwnerTaggedLoad(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2016, 3, 2)
	snap := testSnapshot(day)

	// Never written → nothing recovered, nothing damaged.
	if prog, damaged := recoverAs(cp, day, "w1"); len(prog.Done) != 0 || len(damaged) != 0 {
		t.Fatalf("empty directory: recovered %v, damaged %v", prog.Done, damaged)
	}

	meta, err := cp.WriteChunk(day, 0, 1, "w1", snap)
	if err != nil {
		t.Fatal(err)
	}
	// The owner's file comes back under the metadata its writer was handed
	// (the CRC is computed from the bytes read), and loads by it.
	prog, damaged := recoverAs(cp, day, "w1")
	if len(damaged) != 0 || len(prog.Done) != 1 || !reflect.DeepEqual(prog.Done[1], meta) {
		t.Fatalf("recovered %+v (damaged %v), want chunk 1 = %+v", prog.Done, damaged, meta)
	}
	got, err := cp.LoadChunk(day, prog.Done[1])
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Records, snap.Records) {
		t.Errorf("records differ after owner-tagged round trip")
	}
	// Another owner's name does not collide.
	if prog, _ := recoverAs(cp, day, "w2"); len(prog.Done) != 0 {
		t.Fatalf("w2 recovered w1's chunk: %+v", prog.Done)
	}

	// Trailer damage is detected without a recorded CRC.
	path := filepath.Join(cp.Dir(), meta.File)
	data, _ := os.ReadFile(path)
	if err := os.WriteFile(path, data[:len(data)-4], 0o644); err != nil {
		t.Fatal(err)
	}
	if prog, damaged := recoverAs(cp, day, "w1"); len(prog.Done) != 0 || !reflect.DeepEqual(damaged, []int{1}) {
		t.Errorf("truncated owner chunk: recovered %v, damaged %v", prog.Done, damaged)
	}
}

// TestTextChunkRescanned: a chunk file in the text form, as written before
// each section became a gzip member, is refused by LoadChunk even under the
// CRC of its own bytes, and RecoverChunks reports it damaged, so its chunk
// is scanned again.
func TestTextChunkRescanned(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2016, 3, 3)
	meta, err := cp.WriteChunk(day, 0, 0, "w1", testSnapshot(day))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(cp.Dir(), meta.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, text, 0o644); err != nil {
		t.Fatal(err)
	}
	textMeta := &Shard{File: meta.File, CRC: crc32.Checksum(text, castagnoli), Records: meta.Records}
	if _, err := cp.LoadChunk(day, textMeta); !errors.Is(err, dataset.ErrTextArchive) {
		t.Errorf("LoadChunk of a text chunk: %v, want ErrTextArchive", err)
	}
	if prog, damaged := recoverAs(cp, day, "w1"); len(prog.Done) != 0 || !reflect.DeepEqual(damaged, []int{0}) {
		t.Errorf("a text chunk: recovered %v, damaged %v; want chunk 0 re-scanned", prog.Done, damaged)
	}
}

// TestAppendUnit walks a finished unit's manifest: every chunk verified and
// emitted in chunk order, and a chunk that is unrecorded, missing, damaged
// or miscounted named in a *ChunkError instead.
func TestAppendUnit(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2016, 3, 4)
	snaps := []*dataset.Snapshot{
		{Day: day, Records: []dataset.Record{{Domain: "a.com", TLD: "com"}, {Domain: "b.com", TLD: "com"}}},
		{Day: day},
		{Day: day, Records: []dataset.Record{{Domain: "c.com", TLD: "com", Failed: true, FailReason: "timeout"}}},
	}
	manifest := NewChunkProgress(2, 5)
	for c, snap := range snaps {
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

func TestChunkShardGeometry(t *testing.T) {
	dp := &DayProgress{}
	cp, err := dp.ChunkShard(0, 10, 25)
	if err != nil {
		t.Fatal(err)
	}
	if cp.Chunks != 3 || cp.Chunk != 10 || cp.Targets != 25 {
		t.Fatalf("geometry: %+v", cp)
	}
	if cp.WellFormed(10) == nil {
		t.Error("empty progress reported well-formed")
	}
	cp.Done[0], cp.Done[1], cp.Done[2] = &Shard{File: "a"}, &Shard{File: "b"}, &Shard{File: "c"}
	if err := cp.WellFormed(10); err != nil {
		t.Errorf("full progress: %v", err)
	}

	// Same geometry returns the same entry.
	again, err := dp.ChunkShard(0, 10, 25)
	if err != nil || again != cp {
		t.Fatalf("re-entry: %v, same=%v", err, again == cp)
	}
	// Different chunk size is refused.
	if _, err := dp.ChunkShard(0, 8, 25); err == nil {
		t.Error("chunk-size change accepted")
	}
	// Different target count is refused.
	if _, err := dp.ChunkShard(0, 10, 30); err == nil {
		t.Error("target-count change accepted")
	}
	// Empty shard has zero chunks and is trivially complete.
	empty, err := dp.ChunkShard(1, 10, 0)
	if err != nil {
		t.Fatal(err)
	}
	if empty.Chunks != 0 || empty.WellFormed(10) != nil {
		t.Errorf("empty shard: %+v", empty)
	}
}

func TestClearRemovesChunkFiles(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2016, 3, 3)
	if _, err := cp.WriteChunk(day, 0, 0, "", testSnapshot(day)); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.WriteChunk(day, 0, 1, "w1", testSnapshot(day)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Save(NewState("fp")); err != nil {
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
