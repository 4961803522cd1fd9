package colstore

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"strings"
	"unsafe"
)

// hostLittleEndian gates the zero-copy column views: the file is always
// little-endian, so reinterpreting its bytes as int32/uint32 slices is
// only legal on a little-endian host.
var hostLittleEndian = func() bool {
	var probe uint16 = 1
	return *(*byte)(unsafe.Pointer(&probe)) == 1
}()

// Load reads a saved world index from path. Where the platform supports
// it the file is memory-mapped and the columns and strings are zero-copy
// views into the mapping — loading is O(validation), resident memory is
// whatever the page cache keeps warm, and a population larger than RAM
// degrades gracefully instead of OOMing. Call Index.Close to release the
// mapping. On platforms without mmap (or for misaligned files) it falls
// back to reading and copying.
//
// Every section's CRC is verified and every cross-reference (ID ranges,
// offset monotonicity, column lengths) is validated before use: a
// truncated, corrupted, or version-skewed file returns a pointed error,
// never a panic or garbage data.
func Load(path string) (*Index, map[string]string, error) {
	if mmapSupported && hostLittleEndian {
		f, err := os.Open(path)
		if err != nil {
			return nil, nil, err
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, nil, err
		}
		data, merr := mmapFile(f, int(st.Size()))
		f.Close() // the mapping outlives the descriptor
		if merr == nil {
			x, meta, err := decode(data, true)
			if err != nil {
				munmap(data)
				return nil, nil, fmt.Errorf("%s: %w", path, err)
			}
			x.mapped = data
			return x, meta, nil
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	x, meta, err := LoadBytes(data)
	if err != nil {
		return nil, nil, fmt.Errorf("%s: %w", path, err)
	}
	return x, meta, nil
}

// LoadBytes decodes a saved world from memory, copying out of data: the
// caller may reuse or discard data afterwards. It performs the same full
// validation as Load and is the fuzzing entry point for the reader.
func LoadBytes(data []byte) (*Index, map[string]string, error) {
	return decode(data, false)
}

// section is one validated payload's bounds within the file.
type section struct {
	off, n int
}

func (s section) bytes(data []byte) []byte { return data[s.off : s.off+s.n] }

// parseSections validates the header and walks the section framing,
// checking bounds and CRCs. Unknown or duplicate tags are errors — a
// newer format version fails here instead of half-loading.
func parseSections(data []byte) (map[string]section, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("colstore: world file truncated: %d bytes, want at least a 16-byte header", len(data))
	}
	if string(data[:8]) != worldMagic {
		return nil, fmt.Errorf("colstore: not a world file (magic %q, want %q)", data[:8], worldMagic)
	}
	if v := binary.LittleEndian.Uint32(data[8:12]); v != worldVersion {
		return nil, fmt.Errorf("colstore: world format version %d, this build reads version %d", v, worldVersion)
	}
	if m := binary.LittleEndian.Uint32(data[12:16]); m != endianMarker {
		return nil, fmt.Errorf("colstore: bad endianness marker %#x, want %#x", m, endianMarker)
	}
	known := make(map[string]bool, len(sectionOrder))
	for _, tag := range sectionOrder {
		known[tag] = true
	}
	secs := make(map[string]section, len(sectionOrder))
	off := 16
	for off < len(data) {
		if len(data)-off < 16 {
			return nil, fmt.Errorf("colstore: truncated section header at byte %d", off)
		}
		tag := string(data[off : off+8])
		plen64 := binary.LittleEndian.Uint64(data[off+8 : off+16])
		if !known[tag] {
			return nil, fmt.Errorf("colstore: unknown section %q at byte %d (newer format version?)", strings.TrimRight(tag, "\x00"), off)
		}
		if _, dup := secs[tag]; dup {
			return nil, fmt.Errorf("colstore: duplicate section %q", strings.TrimRight(tag, "\x00"))
		}
		if plen64 > uint64(len(data)-off-16) {
			return nil, fmt.Errorf("colstore: section %q claims %d payload bytes, only %d remain (truncated?)",
				strings.TrimRight(tag, "\x00"), plen64, len(data)-off-16)
		}
		plen := int(plen64)
		payloadOff := off + 16
		pad := (8 - plen%8) % 8
		trailerOff := payloadOff + plen + pad
		if len(data)-trailerOff < 8 {
			return nil, fmt.Errorf("colstore: section %q is missing its CRC trailer", strings.TrimRight(tag, "\x00"))
		}
		want := binary.LittleEndian.Uint32(data[trailerOff : trailerOff+4])
		if got := crc32.Checksum(data[payloadOff:payloadOff+plen], worldCRC); got != want {
			return nil, fmt.Errorf("colstore: section %q CRC mismatch: file says %08x, payload hashes to %08x",
				strings.TrimRight(tag, "\x00"), want, got)
		}
		secs[tag] = section{off: payloadOff, n: plen}
		off = trailerOff + 8
	}
	for _, tag := range sectionOrder {
		if _, ok := secs[tag]; !ok && !isNameSection(tag) {
			return nil, fmt.Errorf("colstore: world file is missing section %q", strings.TrimRight(tag, "\x00"))
		}
	}
	return secs, nil
}

// decode validates and materializes an Index from a parsed file. With
// zeroCopy the integer columns and strings alias data (which must stay
// alive and little-endian-interpretable); otherwise everything is copied.
func decode(data []byte, zeroCopy bool) (*Index, map[string]string, error) {
	secs, err := parseSections(data)
	if err != nil {
		return nil, nil, err
	}
	meta, err := decodeMeta(secs[secMeta].bytes(data))
	if err != nil {
		return nil, nil, err
	}

	// Population size is structural: the flags column is one byte per
	// domain, and every other column must agree with it.
	n := secs[secFlags].n
	for _, c := range []struct {
		tag   string
		width int
	}{
		{secOpID, 4}, {secTLDID, 2}, {secRegID, 4},
		{secCreated, 4}, {secKeyDay, 4}, {secDSDay, 4},
	} {
		if secs[c.tag].n != c.width*n {
			return nil, nil, fmt.Errorf("colstore: column %q is %d bytes, want %d for %d domains",
				strings.TrimRight(c.tag, "\x00"), secs[c.tag].n, c.width*n, n)
		}
	}

	ops, err := unpackStrings(data, secs[secOps], secs[secOpsOff], -1, "operator", zeroCopy)
	if err != nil {
		return nil, nil, err
	}
	nsHosts, err := unpackStrings(data, secs[secOpNS], secs[secOpNSOff], len(ops), "NS-host", zeroCopy)
	if err != nil {
		return nil, nil, err
	}
	tlds, err := unpackStrings(data, secs[secTLDs], secs[secTLDsOff], -1, "TLD", zeroCopy)
	if err != nil {
		return nil, nil, err
	}
	regs, err := unpackStrings(data, secs[secRegs], secs[secRegsOff], -1, "registrar", zeroCopy)
	if err != nil {
		return nil, nil, err
	}
	names, err := decodeNames(data, secs, n, zeroCopy)
	if err != nil {
		return nil, nil, err
	}
	if len(tlds) > 1<<16 {
		return nil, nil, fmt.Errorf("colstore: %d TLDs overflow the 16-bit TLD ID column", len(tlds))
	}

	x := &Index{
		packedNames: names,
		opID:        unpackColumn(data, secs[secOpID], zeroCopy, binary.LittleEndian.Uint32),
		tldID:       unpackColumn(data, secs[secTLDID], zeroCopy, binary.LittleEndian.Uint16),
		regID:       unpackColumn(data, secs[secRegID], zeroCopy, binary.LittleEndian.Uint32),
		created:     unpackColumn(data, secs[secCreated], zeroCopy, getInt32),
		keyDay:      unpackColumn(data, secs[secKeyDay], zeroCopy, getInt32),
		dsDay:       unpackColumn(data, secs[secDSDay], zeroCopy, getInt32),
		flags:       secs[secFlags].bytes(data),
		ops:         ops,
		tlds:        tlds,
		regs:        regs,
	}
	if !zeroCopy {
		x.flags = append([]uint8(nil), x.flags...)
	}

	// Cross-reference validation: every ID must land inside its intern
	// table and every flag byte must be known, or downstream code would
	// index out of bounds / misclassify.
	for i := 0; i < n; i++ {
		if int(x.opID[i]) >= len(ops) {
			return nil, nil, fmt.Errorf("colstore: domain %d references operator %d of %d", i, x.opID[i], len(ops))
		}
		if int(x.tldID[i]) >= len(tlds) {
			return nil, nil, fmt.Errorf("colstore: domain %d references TLD %d of %d", i, x.tldID[i], len(tlds))
		}
		if int(x.regID[i]) >= len(regs) {
			return nil, nil, fmt.Errorf("colstore: domain %d references registrar %d of %d", i, x.regID[i], len(regs))
		}
		if x.flags[i]&^(flagBroken|flagExpired) != 0 {
			return nil, nil, fmt.Errorf("colstore: domain %d has unknown flag bits %#x (newer format version?)", i, x.flags[i])
		}
	}

	// Rebuild the intern maps; duplicate table entries would silently
	// shadow each other there, so reject them.
	x.opIDs = make(map[string]uint32, len(ops))
	for i, op := range ops {
		if _, dup := x.opIDs[op]; dup {
			return nil, nil, fmt.Errorf("colstore: duplicate operator %q in intern table", op)
		}
		x.opIDs[op] = uint32(i)
	}
	x.tldIDs = make(map[string]uint16, len(tlds))
	for i, tld := range tlds {
		if _, dup := x.tldIDs[tld]; dup {
			return nil, nil, fmt.Errorf("colstore: duplicate TLD %q in intern table", tld)
		}
		x.tldIDs[tld] = uint16(i)
	}
	x.opNS = hostSlices(nsHosts)

	// fullDay is derived state (see deriveFullDay); recompute rather than
	// trust the file.
	x.fullDay = make([]int32, n)
	for i := 0; i < n; i++ {
		x.fullDay[i] = deriveFullDay(x.keyDay[i], x.dsDay[i], x.flags[i])
	}

	x.finish()
	return x, meta, nil
}

// decodeMeta parses the k=v annotation block.
func decodeMeta(payload []byte) (map[string]string, error) {
	meta := map[string]string{}
	if len(payload) == 0 {
		return meta, nil
	}
	body := string(payload)
	if !strings.HasSuffix(body, "\n") {
		return nil, fmt.Errorf("colstore: META section is not newline-terminated")
	}
	for _, line := range strings.Split(strings.TrimSuffix(body, "\n"), "\n") {
		k, v, ok := strings.Cut(line, "=")
		if !ok || k == "" {
			return nil, fmt.Errorf("colstore: malformed META line %q", line)
		}
		meta[k] = v
	}
	return meta, nil
}

// isNameSection reports whether tag belongs to one of the two forms of
// the name column, which decodeNames checks.
func isNameSection(tag string) bool {
	return tag == secNames || tag == secNamesOff || tag == secNameLine
}

// decodeNames takes the name column from the one form the file holds:
// NAMES and NAMESOFF, or NAMELINE.
func decodeNames(data []byte, secs map[string]section, n int, zeroCopy bool) (packedNames, error) {
	lines, hasLines := secs[secNameLine]
	blob, hasBlob := secs[secNames]
	offs, hasOffs := secs[secNamesOff]
	switch {
	case hasLines && (hasBlob || hasOffs):
		return packedNames{}, fmt.Errorf("colstore: world file holds both NAMELINE and NAMES/NAMESOFF")
	case hasLines:
		return unpackNameLines(lines.bytes(data), n)
	case hasBlob && hasOffs:
		return unpackNames(data, blob, offs, n, zeroCopy)
	case hasBlob:
		return packedNames{}, fmt.Errorf("colstore: world file is missing section \"NAMESOFF\"")
	default:
		return packedNames{}, fmt.Errorf("colstore: world file is missing section \"NAMES\" (or \"NAMELINE\")")
	}
}

// unpackStrings rebuilds an intern table from its blob + u32 offsets
// sections; wantCount, when >= 0, pins the expected entry count. Offsets
// must start at 0, be non-decreasing, and end at the blob length.
func unpackStrings(data []byte, blob, offs section, wantCount int, what string, zeroCopy bool) ([]string, error) {
	if offs.n%4 != 0 || offs.n/4 < 1 {
		return nil, fmt.Errorf("colstore: %s offsets section is %d bytes, not a positive multiple of 4", what, offs.n)
	}
	count := offs.n/4 - 1
	if wantCount >= 0 && count != wantCount {
		return nil, fmt.Errorf("colstore: %d %s entries, want %d", count, what, wantCount)
	}
	ob := offs.bytes(data)
	at := func(i int) int { return int(binary.LittleEndian.Uint32(ob[4*i:])) }
	if at(0) != 0 {
		return nil, fmt.Errorf("colstore: %s offsets start at %d, want 0", what, at(0))
	}
	if at(count) != blob.n {
		return nil, fmt.Errorf("colstore: %s offsets end at %d, blob is %d bytes", what, at(count), blob.n)
	}
	bb := blob.bytes(data)
	out := make([]string, count)
	prev := 0
	for i := 0; i < count; i++ {
		end := at(i + 1)
		if end < prev || end > blob.n {
			return nil, fmt.Errorf("colstore: %s offsets are not monotonic at entry %d", what, i)
		}
		if zeroCopy && end > prev {
			out[i] = unsafe.String(&bb[prev], end-prev)
		} else {
			out[i] = string(bb[prev:end])
		}
		prev = end
	}
	return out, nil
}

// unpackColumn returns a fixed-width column: a zero-copy reinterpretation
// of the mapped bytes on little-endian hosts (payloads are 8-byte aligned
// by the framing), an element-wise decode with get otherwise.
func unpackColumn[T uint16 | uint32 | uint64 | int32](data []byte, s section, zeroCopy bool, get func([]byte) T) []T {
	var zero T
	width := int(unsafe.Sizeof(zero))
	if s.n == 0 {
		return nil
	}
	b := s.bytes(data)
	if zeroCopy {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), s.n/width)
	}
	out := make([]T, s.n/width)
	for i := range out {
		out[i] = get(b[width*i:])
	}
	return out
}

func getInt32(b []byte) int32 { return int32(binary.LittleEndian.Uint32(b)) }
