package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/simtime"
)

// testIndex builds a small index with adversarial state combinations:
// Never days, broken and expired flags, empty registrar, multi-TLD
// operators.
func testIndex(n int, seed int64) *Index {
	rng := rand.New(rand.NewSource(seed))
	tlds := []string{"com", "net", "org", "nl", "se"}
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		op := fmt.Sprintf("op%02d.example", rng.Intn(12))
		reg := ""
		if rng.Intn(2) == 0 {
			reg = "Registrar-" + op
		}
		day := func() simtime.Day {
			if rng.Intn(4) == 0 {
				return simtime.Never
			}
			return simtime.Day(rng.Intn(900) - 100)
		}
		b.Add(Domain{
			Name:       fmt.Sprintf("d%05d.%s", i, tlds[rng.Intn(len(tlds))]),
			TLD:        tlds[rng.Intn(len(tlds))],
			Operator:   op,
			Registrar:  reg,
			NSHost:     "ns1." + op,
			Created:    simtime.Day(rng.Intn(900) - 700),
			KeyDay:     day(),
			DSDay:      day(),
			BrokenDS:   rng.Intn(7) == 0,
			ExpiredSig: rng.Intn(7) == 0,
		})
	}
	return b.Build()
}

// assertIndexEqual compares two indexes via their public query surface.
func assertIndexEqual(t *testing.T, got, want *Index) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("Len %d, want %d", got.Len(), want.Len())
	}
	for i := 0; i < want.Len(); i++ {
		if g, w := got.Row(i), want.Row(i); g != w {
			t.Fatalf("row %d differs:\ngot  %+v\nwant %+v", i, g, w)
		}
	}
	for _, day := range []simtime.Day{simtime.GTLDStart, simtime.End, -50} {
		if !reflect.DeepEqual(got.Snapshot(day), want.Snapshot(day)) {
			t.Fatalf("Snapshot(%v) diverges", day)
		}
	}
	if !reflect.DeepEqual(got.DomainsByRegistrar(), want.DomainsByRegistrar()) {
		t.Fatal("DomainsByRegistrar diverges")
	}
	op := want.Row(0).Operator
	if !reflect.DeepEqual(
		got.Series(op, "", 0, simtime.End, 30),
		want.Series(op, "", 0, simtime.End, 30)) {
		t.Fatal("Series diverges")
	}
}

func TestSaveLoadBytesRoundTrip(t *testing.T) {
	x := testIndex(400, 1)
	var buf bytes.Buffer
	meta := map[string]string{"fingerprint": "abc123", "scale": "0.001"}
	if err := x.Save(&buf, meta); err != nil {
		t.Fatal(err)
	}
	loaded, gotMeta, err := LoadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotMeta, meta) {
		t.Errorf("meta %v, want %v", gotMeta, meta)
	}
	assertIndexEqual(t, loaded, x)
}

func TestSaveFileLoadRoundTrip(t *testing.T) {
	x := testIndex(300, 2)
	path := filepath.Join(t.TempDir(), "idx.rscw")
	if err := x.SaveFile(path, nil); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if len(meta) != 0 {
		t.Errorf("meta %v, want empty", meta)
	}
	assertIndexEqual(t, loaded, x)
}

// TestSaveFileLeavesOnlyTheWorld: a successful save — directory fsync
// included, whose error SaveFile now reports — renames its temp file
// away; a failed one removes it.
func TestSaveFileLeavesOnlyTheWorld(t *testing.T) {
	dir := t.TempDir()
	x := testIndex(50, 6)
	if err := x.SaveFile(filepath.Join(dir, "idx.rscw"), nil); err != nil {
		t.Fatal(err)
	}
	if err := x.SaveFile(filepath.Join(dir, "bad.rscw"), map[string]string{"a=b": "v"}); err == nil {
		t.Fatal("SaveFile accepted invalid meta")
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "idx.rscw" {
		t.Fatalf("directory holds %v, want only idx.rscw", entries)
	}
	if err := x.SaveFile(filepath.Join(dir, "missing", "idx.rscw"), nil); err == nil {
		t.Fatal("SaveFile into a missing directory succeeded")
	}
}

func TestSaveDeterministic(t *testing.T) {
	x := testIndex(200, 3)
	var a, b bytes.Buffer
	if err := x.Save(&a, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if err := x.Save(&b, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two saves of the same index differ")
	}
}

func TestEmptyIndexRoundTrip(t *testing.T) {
	x := NewBuilder(0).Build()
	var buf bytes.Buffer
	if err := x.Save(&buf, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := LoadBytes(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if loaded.Len() != 0 {
		t.Fatalf("empty index loaded %d rows", loaded.Len())
	}
}

func TestMetaValidation(t *testing.T) {
	x := NewBuilder(0).Build()
	var buf bytes.Buffer
	for _, bad := range []map[string]string{
		{"a=b": "v"},
		{"a\nb": "v"},
		{"": "v"},
		{"k": "line1\nline2"},
	} {
		if err := x.Save(&buf, bad); err == nil {
			t.Errorf("Save accepted invalid meta %v", bad)
		}
	}
}

// TestLoadRejectsCorruption flips, truncates, and rewrites a valid file
// in targeted ways; every mutation must produce an error, never a load.
func TestLoadRejectsCorruption(t *testing.T) {
	x := testIndex(150, 4)
	var buf bytes.Buffer
	if err := x.Save(&buf, map[string]string{"k": "v"}); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	if _, _, err := LoadBytes(good); err != nil {
		t.Fatalf("baseline does not load: %v", err)
	}

	mutate := func(name string, f func(b []byte) []byte) {
		b := append([]byte(nil), good...)
		b = f(b)
		if _, _, err := LoadBytes(b); err == nil {
			t.Errorf("%s: corrupted file loaded without error", name)
		}
	}
	mutate("empty", func(b []byte) []byte { return nil })
	mutate("truncated header", func(b []byte) []byte { return b[:10] })
	mutate("bad magic", func(b []byte) []byte { b[0] ^= 0xFF; return b })
	mutate("version skew", func(b []byte) []byte {
		binary.LittleEndian.PutUint32(b[8:12], 999)
		return b
	})
	mutate("bad endian marker", func(b []byte) []byte { b[12] ^= 0xFF; return b })
	mutate("truncated mid-section", func(b []byte) []byte { return b[:len(b)/2] })
	mutate("truncated trailer", func(b []byte) []byte { return b[:len(b)-4] })
	mutate("payload bit flip", func(b []byte) []byte { b[len(b)/2] ^= 0x01; return b })
	mutate("unknown section tag", func(b []byte) []byte { b[16] = 'Z'; return b })
	mutate("section length overflow", func(b []byte) []byte {
		binary.LittleEndian.PutUint64(b[24:32], 1<<60)
		return b
	})
	// Flip a flag byte to an undefined bit pattern and re-CRC the FLAGS
	// section so only semantic validation can catch it: FLAGS is the last
	// section, its payload ends 8 bytes before EOF (pad+CRC trailer).
	mutate("unknown flag bits", func(b []byte) []byte {
		n := x.Len()
		pad := (8 - n%8) % 8
		payloadStart := len(b) - 8 - pad - n
		b[payloadStart] = 0x80
		crc := crc32.Checksum(b[payloadStart:payloadStart+n], worldCRC)
		binary.LittleEndian.PutUint32(b[len(b)-8:], crc)
		return b
	})
}

// rewriteSection returns file with one section's payload replaced by
// f(payload) and re-framed, so the CRC is good and only the semantic
// validation in decode stands between the damage and a load.
func rewriteSection(t testing.TB, file []byte, tag string, f func(payload []byte) []byte) []byte {
	t.Helper()
	secs, err := parseSections(file)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.Write(file[:16])
	for _, sec := range sectionOrder {
		payload := append([]byte(nil), secs[sec].bytes(file)...)
		if sec == tag {
			payload = f(payload)
		}
		if err := writeSection(&out, sec, payload); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// badNameColumns damages the NAMES/NAMESOFF pair of a valid file in each
// way the packed name column could be handed offsets that do not describe
// its blob.
func badNameColumns(t testing.TB) map[string][]byte {
	t.Helper()
	var buf bytes.Buffer
	if err := testIndex(40, 9).Save(&buf, nil); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	offsets := func(f func(off []byte) []byte) []byte {
		return rewriteSection(t, good, secNamesOff, f)
	}
	return map[string][]byte{
		"offsets go backwards": offsets(func(off []byte) []byte {
			binary.LittleEndian.PutUint64(off[8*5:], binary.LittleEndian.Uint64(off[8*4:])-1)
			return off
		}),
		"last offset short of the blob": offsets(func(off []byte) []byte {
			last := off[len(off)-8:]
			binary.LittleEndian.PutUint64(last, binary.LittleEndian.Uint64(last)-1)
			return off
		}),
		"offset past the blob": offsets(func(off []byte) []byte {
			binary.LittleEndian.PutUint64(off[8*7:], 1<<40)
			return off
		}),
		"first offset not zero": offsets(func(off []byte) []byte {
			binary.LittleEndian.PutUint64(off, 1)
			return off
		}),
		"one offset too few":  offsets(func(off []byte) []byte { return off[:len(off)-8] }),
		"one offset too many": offsets(func(off []byte) []byte { return append(off, off[len(off)-8:]...) }),
		"offsets not 8-byte":  offsets(func(off []byte) []byte { return off[:len(off)-3] }),
		"no offsets at all":   offsets(func(off []byte) []byte { return nil }),
		"blob shorter than offsets say": rewriteSection(t, good, secNames, func(blob []byte) []byte {
			return blob[:len(blob)-1]
		}),
	}
}

// TestLoadRejectsBadNameOffsets: names are served as views computed from
// NAMESOFF, so an offsets column that does not describe the blob must be
// refused by both the copying and the zero-copy decoder.
func TestLoadRejectsBadNameOffsets(t *testing.T) {
	for name, file := range badNameColumns(t) {
		if _, _, err := LoadBytes(file); err == nil {
			t.Errorf("%s: LoadBytes accepted the file", name)
		}
		if hostLittleEndian {
			if _, _, err := decode(file, true); err == nil {
				t.Errorf("%s: zero-copy decode accepted the file", name)
			}
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := Load(filepath.Join(t.TempDir(), "nope.rscw")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// FuzzLoadWorld hammers the reader with mutated files: any input must
// either load cleanly or return an error — no panics, no silent garbage.
func FuzzLoadWorld(f *testing.F) {
	for _, n := range []int{0, 1, 50} {
		var buf bytes.Buffer
		if err := testIndex(n, int64(n)).Save(&buf, map[string]string{"k": "v"}); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte{})
	f.Add([]byte(worldMagic))
	for _, file := range badNameColumns(f) {
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, _, err := LoadBytes(data)
		if err != nil {
			return
		}
		// A successful load must be internally consistent enough to query.
		n := x.Len()
		if n > 0 {
			_ = x.Row(0)
			_ = x.Row(n - 1)
		}
		_ = x.Snapshot(simtime.End)
		_ = x.DomainsByRegistrar()
	})
}
