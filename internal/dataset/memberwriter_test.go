package dataset

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"math/rand/v2"
	"runtime"
	"slices"
	"testing"
)

// seededText is n bytes of seeded text shaped like a section's record
// lines: ordered domains, NS sets drawn from a few hundred operators,
// flags.
func seededText(n int, seed uint64) []byte {
	rng := rand.New(rand.NewPCG(seed, 0))
	tlds := []string{"com", "net", "org"}
	b := make([]byte, 0, n+128)
	for i := 0; len(b) < n; i++ {
		op := rng.IntN(300)
		b = fmt.Appendf(b, "d%07d-%x.%s\tns1.op%d.net ns2.op%d.net\t%d\n", i, rng.Uint32()>>20, tlds[rng.IntN(3)], op, op, rng.IntN(16))
	}
	return b[:n]
}

// writeMember writes text as one member deflating at most workers blocks
// at once, handing it to Write in pieces of the given lengths, used in
// turn; none, or only empty ones, means one Write of the whole text.
func writeMember(t testing.TB, text []byte, workers int, pieces []int) []byte {
	t.Helper()
	if !slices.ContainsFunc(pieces, func(n int) bool { return n > 0 }) {
		pieces = nil
	}
	var buf bytes.Buffer
	mw := newMemberWriter(&buf, workers)
	for i, p := 0, text; len(p) > 0; i++ {
		k := len(p)
		if len(pieces) > 0 {
			k = min(k, pieces[i%len(pieces)])
		}
		if n, err := mw.Write(p[:k]); n != k || err != nil {
			t.Fatalf("Write of %d bytes: %d, %v", k, n, err)
		}
		p = p[k:]
	}
	if err := mw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// referenceMember is the member of text built the plain way, the
// reference the member writer is held to: each 128 KiB block of text
// deflated by a new compressor and sync-flushed, the last one closed,
// between the fixed header and the CRC-32 / ISIZE trailer.
func referenceMember(text []byte) []byte {
	member := bytes.Clone(memberHeader)
	for off := 0; ; off += memberBlock {
		end := min(off+memberBlock, len(text))
		var block bytes.Buffer
		fw, _ := flate.NewWriter(&block, memberLevel)
		fw.Write(text[off:end]) // writes to a bytes.Buffer do not fail
		if end == len(text) {
			fw.Close()
			member = append(member, block.Bytes()...)
			break
		}
		fw.Flush()
		member = append(member, block.Bytes()...)
	}
	member = binary.LittleEndian.AppendUint32(member, crc32.ChecksumIEEE(text))
	return binary.LittleEndian.AppendUint32(member, uint32(len(text)))
}

// checkMember requires member to inflate to text through gzip.Reader with
// Multistream(false), which must consume every byte of it, and through the
// scanner's own decoder — gzip.Reader over the scanner's input, a
// flate.Reader — which must stop exactly at the member's end.
func checkMember(t testing.TB, member, text []byte) {
	t.Helper()
	if !bytes.HasPrefix(member, memberHeader) {
		t.Fatalf("member starts % x, want % x", member[:min(len(member), len(memberHeader))], memberHeader)
	}
	r := bytes.NewReader(member)
	zr, err := gzip.NewReader(r)
	if err != nil {
		t.Fatal(err)
	}
	zr.Multistream(false)
	got, err := io.ReadAll(zr)
	if err != nil || !bytes.Equal(got, text) || r.Len() != 0 {
		t.Fatalf("gzip.Reader: %d bytes (%v), %d left over, want the %d-byte text", len(got), err, r.Len(), len(text))
	}
	// The input's watch for member headers is off: text can hold one, which
	// deflate may store as it is.
	in := &input{r: bytes.NewReader(member), buf: make([]byte, 0, scanBufSize), watch: math.MaxInt64, ahead: -1}
	var sz gzip.Reader
	if err := sz.Reset(in); err != nil {
		t.Fatal(err)
	}
	sz.Multistream(false)
	got, err = io.ReadAll(&sz)
	if err != nil || !bytes.Equal(got, text) || in.pos() != int64(len(member)) {
		t.Fatalf("scanner's decoder: %d bytes (%v), stopped at %d of %d, want the %d-byte text", len(got), err, in.pos(), len(member), len(text))
	}
}

// FuzzMemberWriter: any text, handed to the member writer in any pieces
// at 1, 2 and 4 workers, makes the reference member of that text, which
// inflates to exactly the text through compress/gzip and through the
// scanner's decoder. cuts gives the piece lengths, two bytes each.
func FuzzMemberWriter(f *testing.F) {
	long := seededText(3*memberBlock+5000, 1)
	for _, text := range [][]byte{nil, {'x'}, long[:memberBlock], long[:memberBlock+1], long} {
		f.Add(text, []byte{})
		f.Add(text, []byte{0, 1, 0x10, 0, 0, 0, 0xff, 0xff})
	}
	f.Fuzz(func(t *testing.T, text, cuts []byte) {
		var pieces []int
		for i := 0; i+1 < len(cuts); i += 2 {
			pieces = append(pieces, int(binary.BigEndian.Uint16(cuts[i:])))
		}
		want := referenceMember(text)
		checkMember(t, want, text)
		for _, workers := range []int{1, 2, 4} {
			if got := writeMember(t, text, workers, pieces); !bytes.Equal(got, want) {
				t.Fatalf("%d workers, pieces %v: %d bytes that differ from the reference's %d", workers, pieces, len(got), len(want))
			}
		}
	})
}

// TestMemberWriterWorkerIdentity: members of up to ten blocks, written at
// GOMAXPROCS workers in pieces of several sizes, are byte for byte the
// reference members of their text. CI runs it at GOMAXPROCS 1 and 4.
func TestMemberWriterWorkerIdentity(t *testing.T) {
	for _, n := range []int{0, 1, memberBlock - 1, memberBlock, memberBlock + 1, 3*memberBlock + 5000, 9*memberBlock + 17} {
		text := seededText(n, 2)
		want := referenceMember(text)
		checkMember(t, want, text)
		for _, pieces := range [][]int{nil, {1, 4095, 0, 100000}, {32 << 10}, {memberBlock + 1}} {
			if got := writeMember(t, text, runtime.GOMAXPROCS(0), pieces); !bytes.Equal(got, want) {
				t.Fatalf("%d bytes at GOMAXPROCS %d in pieces %v: %d bytes that differ from the reference's %d",
					n, runtime.GOMAXPROCS(0), pieces, len(got), len(want))
			}
		}
	}
}

// allocated is what f allocates on the heap.
func allocated(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// heapSampler is a sink that records the peak live heap at every write.
type heapSampler struct{ peak uint64 }

func (h *heapSampler) sample() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	h.peak = max(h.peak, ms.HeapAlloc)
}

func (h *heapSampler) Write(p []byte) (int, error) {
	h.sample()
	return len(p), nil
}

// TestMemberWriterHeapBounded: the member writer streams. Writing 1 MiB
// and 16 MiB of text at GOMAXPROCS 2, its heap — sampled at every write in
// and out — stays under workers+1 blocks and as many compressors, whatever
// the member's size.
func TestMemberWriterHeapBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	const workers = 2
	compressor := allocated(func() { flate.NewWriter(io.Discard, memberLevel) })
	bound := uint64(workers+1) * (memberBlock + compressor)
	for _, size := range []int{1 << 20, 16 << 20} {
		text := seededText(size, 3)
		runtime.GC()
		runtime.GC() // twice: the second empties the pools' victim caches
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		h := &heapSampler{peak: base.HeapAlloc}
		mw := NewMemberWriter(h)
		for p := text; len(p) > 0; p = p[min(len(p), 64<<10):] {
			mw.Write(p[:min(len(p), 64<<10)]) // h does not fail
			h.sample()
		}
		if err := mw.Close(); err != nil {
			t.Fatal(err)
		}
		h.sample()
		if grew := h.peak - base.HeapAlloc; grew > bound {
			t.Errorf("%d MiB of text: the heap grew by %d bytes, bound %d", size>>20, grew, bound)
		} else {
			t.Logf("%d MiB of text: the heap grew by %d bytes, bound %d", size>>20, grew, bound)
		}
		runtime.KeepAlive(text)
	}
}
