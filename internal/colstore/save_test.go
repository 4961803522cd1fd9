package colstore

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash/crc32"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/dataset"
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

// reframe returns file re-framed section by section in sectionOrder,
// each payload replaced by edit(tag, payload, present): a section is
// written when edit returns true, so edit can drop a section or add one the
// file lacks. The CRCs are good, so only the semantic validation in decode
// stands between the damage and a load.
func reframe(t testing.TB, file []byte, edit func(tag string, payload []byte, present bool) ([]byte, bool)) []byte {
	t.Helper()
	secs, err := parseSections(file)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	out.Write(file[:16])
	for _, tag := range sectionOrder {
		s, present := secs[tag]
		var payload []byte
		if present {
			payload = bytes.Clone(s.bytes(file))
		}
		if payload, present = edit(tag, payload, present); !present {
			continue
		}
		if err := writeSection(&out, tag, payload, nil); err != nil {
			t.Fatal(err)
		}
	}
	return out.Bytes()
}

// rewriteSection returns file with one section's payload replaced by
// f(payload) and re-framed.
func rewriteSection(t testing.TB, file []byte, tag string, f func(payload []byte) []byte) []byte {
	t.Helper()
	return reframe(t, file, func(sec string, payload []byte, present bool) ([]byte, bool) {
		if sec == tag && present {
			payload = f(payload)
		}
		return payload, present
	})
}

// badNameColumns damages the name column of a valid file in each way it
// could fail to describe n names: NAMESOFF offsets that do not describe
// the NAMES blob, NAMELINE lines that are not n newline-terminated names,
// a name holding a newline in either form, and both forms or neither.
func badNameColumns(t testing.TB) map[string][]byte {
	t.Helper()
	x := testIndex(40, 9)
	var m, l bytes.Buffer
	if err := x.save(&m, nil, true); err != nil {
		t.Fatal(err)
	}
	if err := x.Save(&l, nil); err != nil {
		t.Fatal(err)
	}
	mapped, lines := m.Bytes(), l.Bytes()
	offsets := func(f func(off []byte) []byte) []byte {
		return rewriteSection(t, mapped, secNamesOff, f)
	}
	nameLines := func(f func(payload []byte) []byte) []byte {
		return rewriteSection(t, lines, secNameLine, f)
	}
	secs, err := parseSections(lines)
	if err != nil {
		t.Fatal(err)
	}
	lineSection := secs[secNameLine].bytes(lines)
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
		"blob shorter than offsets say": rewriteSection(t, mapped, secNames, func(blob []byte) []byte {
			return blob[:len(blob)-1]
		}),
		"mapped name holds a newline": rewriteSection(t, mapped, secNames, func(blob []byte) []byte {
			blob[2] = '\n'
			return blob
		}),
		"line name holds a newline": nameLines(func(p []byte) []byte {
			p[2] = '\n'
			return p
		}),
		"mapped name starts with a front-coding marker": rewriteSection(t, mapped, secNames, func(blob []byte) []byte {
			blob[0] = 'D'
			return blob
		}),
		"first line front-coded": nameLines(func(p []byte) []byte {
			p[0] = 'A'
			return p
		}),
		"line shares more than the name before": nameLines(func(p []byte) []byte {
			second := bytes.IndexByte(p, '\n') + 1
			p[second] = byte('A' + second - 1) // the first name and its newline
			return p
		}),
		"one line short": nameLines(func(p []byte) []byte {
			return p[:bytes.LastIndexByte(p[:len(p)-1], '\n')+1]
		}),
		"one line over":        nameLines(func(p []byte) []byte { return append(p, "d99999.com\n"...) }),
		"no final newline":     nameLines(func(p []byte) []byte { return p[:len(p)-1] }),
		"bytes after the last": nameLines(func(p []byte) []byte { return append(p, 'x') }),
		"no lines at all":      nameLines(func(p []byte) []byte { return nil }),
		"both name forms": reframe(t, mapped, func(tag string, payload []byte, present bool) ([]byte, bool) {
			if tag == secNameLine {
				return lineSection, true
			}
			return payload, present
		}),
		"neither name form": reframe(t, mapped, func(tag string, payload []byte, present bool) ([]byte, bool) {
			return payload, present && !isNameSection(tag)
		}),
		"NAMES without NAMESOFF": reframe(t, mapped, func(tag string, payload []byte, present bool) ([]byte, bool) {
			return payload, present && tag != secNamesOff
		}),
	}
}

// TestLoadRejectsBadNameOffsets: names are served as views computed from
// the offsets, stored or recounted, so a name column that does not
// describe exactly n names must be refused by both the copying and the
// zero-copy decoder.
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

// TestSaveRefusesNewlineName: the line form cannot carry a name holding a
// newline, so neither form saves one: both name the row and write nothing.
func TestSaveRefusesNewlineName(t *testing.T) { checkSaveRefuses(t, "c\n.com") }

// TestSaveRefusesFrontMarkerName: nor can it carry a name that starts with
// a front-coding marker, an upper-case ASCII letter.
func TestSaveRefusesFrontMarkerName(t *testing.T) { checkSaveRefuses(t, "C.com") }

// checkSaveRefuses requires both forms to refuse an index whose third name
// is bad, naming its row and writing nothing.
func checkSaveRefuses(t *testing.T, bad string) {
	b := NewBuilder(3)
	for _, name := range []string{"a.com", "b.com", bad} {
		b.Add(Domain{Name: name, TLD: "com", Operator: "op.example", NSHost: "ns1.op.example",
			KeyDay: simtime.Never, DSDay: simtime.Never})
	}
	x := b.Build()
	var buf bytes.Buffer
	if err := x.Save(&buf, nil); err == nil || !strings.Contains(err.Error(), "domain 2") {
		t.Errorf("Save: %v, want an error naming domain 2", err)
	}
	if buf.Len() != 0 {
		t.Errorf("Save wrote %d bytes before refusing", buf.Len())
	}
	path := filepath.Join(t.TempDir(), "idx.rscw")
	if err := x.SaveFile(path, nil); err == nil || !strings.Contains(err.Error(), "domain 2") {
		t.Errorf("SaveFile: %v, want an error naming domain 2", err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("SaveFile left a file: %v", err)
	}
}

// TestSaveFormsAgree holds the two forms to one index: the line form is
// every name front-coded against the one before it and a newline, the
// mapped form is what SaveFile writes, and
// an index loaded from either — copied, or mapped from the file — saves
// to the same bytes in both forms. CI runs it at GOMAXPROCS 1 and 4.
func TestSaveFormsAgree(t *testing.T) {
	dir := t.TempDir()
	// 5,000 rows' names pass through NAMELINE's buffer twice.
	for _, n := range []int{0, 1, 400, 5000} {
		x := testIndex(n, int64(n))
		meta := map[string]string{"k": "v"}
		var lines, mapped bytes.Buffer
		if err := x.Save(&lines, meta); err != nil {
			t.Fatal(err)
		}
		if err := x.save(&mapped, meta, true); err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("%d.rscw", n))
		if err := x.SaveFile(path, meta); err != nil {
			t.Fatal(err)
		}
		if onDisk, err := os.ReadFile(path); err != nil || !bytes.Equal(onDisk, mapped.Bytes()) {
			t.Fatalf("%d rows: SaveFile wrote other bytes than the mapped form (%v)", n, err)
		}
		secs, err := parseSections(lines.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for i := range n {
			prev := ""
			if i > 0 {
				prev = x.name(i - 1)
			}
			want = append(dataset.AppendFrontCoded(want, []byte(prev), []byte(x.name(i))), '\n')
		}
		if got := secs[secNameLine].bytes(lines.Bytes()); !bytes.Equal(got, want) {
			t.Fatalf("%d rows: NAMELINE is %q, want %q", n, got, want)
		}

		fromLines, _, err := LoadBytes(lines.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		fromMapped, _, err := Load(path)
		if err != nil {
			t.Fatal(err)
		}
		for form, y := range map[string]*Index{"line": fromLines, "mapped": fromMapped} {
			if n > 0 {
				assertIndexEqual(t, y, x)
			}
			var l, m bytes.Buffer
			if err := y.Save(&l, meta); err != nil {
				t.Fatal(err)
			}
			if err := y.save(&m, meta, true); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(l.Bytes(), lines.Bytes()) || !bytes.Equal(m.Bytes(), mapped.Bytes()) {
				t.Errorf("%d rows: loaded from the %s form, the index saves to other bytes", n, form)
			}
		}
		fromMapped.Close()
	}
}

// TestSaveHeapBounded: Save streams NAMELINE through one fixed buffer and
// writes the other columns as they lie in memory, so what it allocates
// does not grow with the rows: at 100k rows the offsets alone are 800 KB.
func TestSaveHeapBounded(t *testing.T) {
	if !hostLittleEndian {
		t.Skip("columns are encoded element by element on a big-endian host")
	}
	const bound = 2*nameLineBuf + 16<<10
	for _, n := range []int{1000, 100_000} {
		x := testIndex(n, 5)
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if err := x.Save(io.Discard, map[string]string{"k": "v"}); err != nil {
			t.Fatal(err)
		}
		runtime.ReadMemStats(&after)
		grew := after.TotalAlloc - before.TotalAlloc
		if grew > bound {
			t.Errorf("%d rows: Save allocated %d B, bound %d B", n, grew, bound)
		}
		t.Logf("%d rows: Save allocated %d B", n, grew)
	}
}

// TestPlainWorldLoads: the observatory's world written before front coding,
// NAMELINE holding every name in full, decodes to exactly the index and META
// it decoded to then — pinned by the digest of their mapped form, which
// front coding left as it was — and the line form it saves now loads back to
// them too. CI runs it at GOMAXPROCS 1 and 4.
func TestPlainWorldLoads(t *testing.T) {
	x, meta, err := LoadBytes(archivetest.Zcat(t, archivetest.PlainWorld))
	if err != nil {
		t.Fatal(err)
	}
	mappedDigest := func(y *Index) string {
		var mapped bytes.Buffer
		if err := y.save(&mapped, meta, true); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(mapped.Bytes())
		return hex.EncodeToString(sum[:])
	}
	if got := mappedDigest(x); got != archivetest.PlainWorldMapped {
		t.Fatalf("the plain world decodes to an index whose mapped form hashes to %s, want %s", got, archivetest.PlainWorldMapped)
	}
	var lines bytes.Buffer
	if err := x.Save(&lines, meta); err != nil {
		t.Fatal(err)
	}
	y, _, err := LoadBytes(lines.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got := mappedDigest(y); got != archivetest.PlainWorldMapped {
		t.Errorf("re-saved in the line form, the plain world loads to an index whose mapped form hashes to %s", got)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, _, err := Load(filepath.Join(t.TempDir(), "nope.rscw")); err == nil {
		t.Fatal("loading a missing file succeeded")
	}
}

// FuzzLoadWorld hammers the reader with mutated files: any input must
// either load cleanly or return an error — no panics, no silent garbage.
// An accepted file, saved in the line form and in SaveFile's mapped form
// and each loaded again, gives the same Save bytes both ways: the line form
// it saves is the canonical front coding, whatever coding it read. Seeded
// with both forms of 0, 1 and 50 rows, every damaged name column, and the
// observatory's world as written before front coding and since.
func FuzzLoadWorld(f *testing.F) {
	plain := archivetest.Zcat(f, archivetest.PlainWorld)
	x, meta, err := LoadBytes(plain)
	if err != nil {
		f.Fatal(err)
	}
	var coded bytes.Buffer
	if err := x.Save(&coded, meta); err != nil {
		f.Fatal(err)
	}
	f.Add(plain)
	f.Add(coded.Bytes())
	for _, n := range []int{0, 1, 50} {
		x := testIndex(n, int64(n))
		for _, mapped := range []bool{false, true} {
			var buf bytes.Buffer
			if err := x.save(&buf, map[string]string{"k": "v"}, mapped); err != nil {
				f.Fatal(err)
			}
			f.Add(buf.Bytes())
		}
	}
	f.Add([]byte{})
	f.Add([]byte(worldMagic))
	for _, file := range badNameColumns(f) {
		f.Add(file)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		x, meta, err := LoadBytes(data)
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

		var lines, mapped bytes.Buffer
		if err := x.Save(&lines, meta); err != nil {
			t.Fatalf("an accepted world does not save: %v", err)
		}
		// x.save(w, meta, true) writes SaveFile's bytes, without the file.
		if err := x.save(&mapped, meta, true); err != nil {
			t.Fatalf("an accepted world does not save in the mapped form: %v", err)
		}
		for form, saved := range map[string][]byte{"line": lines.Bytes(), "mapped": mapped.Bytes()} {
			y, _, err := LoadBytes(saved)
			if err != nil {
				t.Fatalf("the %s form of an accepted world does not load: %v", form, err)
			}
			var again bytes.Buffer
			if err := y.Save(&again, meta); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(again.Bytes(), lines.Bytes()) {
				t.Fatalf("reloaded from its %s form the world saves %d bytes, want %d", form, again.Len(), lines.Len())
			}
		}
	})
}
