package colstore

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"unsafe"

	"securepki.org/registrarsec/internal/dataset"
)

// packedNames is the domain-name column: one blob, and n+1 offsets into
// it (nameOff[0] == 0, nameOff[n] == len(nameBlob)). That is the shape the
// mapped form's NAMES and NAMESOFF sections give it on disk; the line
// form's NAMELINE is the same names front-coded (dataset.AppendFrontCoded),
// each against the row before it, and each followed by '\n', from which the
// decoder rebuilds the names and recounts the offsets. A population's names
// are therefore two allocations the collector never looks inside, where a
// []string was one heap object per domain, all of them marked on every
// cycle. Bytes below nameOff[n] are never rewritten, which is what lets name
// hand out views and an ingester share its blob with a frozen index. No name
// holds a newline or starts with a front-coding marker: neither form saves
// one, and the decoder refuses one in both.
type packedNames struct {
	nameBlob []byte
	nameOff  []uint64
}

// name returns row i's name as a view into the blob: it stays valid as
// long as the blob does (for an mmap-loaded index, until Close).
func (p *packedNames) name(i int) string {
	b := p.nameBlob[p.nameOff[i]:p.nameOff[i+1]]
	return unsafe.String(unsafe.SliceData(b), len(b))
}

// appendName adds one row's name at the end of the column.
func (p *packedNames) appendName(name string) {
	p.nameBlob = append(p.nameBlob, name...)
	p.nameOff = append(p.nameOff, uint64(len(p.nameBlob)))
}

// checkNames refuses a column with a name the line form cannot carry —
// one holding a newline, or starting with a front-coding marker — naming
// its row.
func (p *packedNames) checkNames() error {
	for i, off := range p.nameOff[:len(p.nameOff)-1] {
		if off < p.nameOff[i+1] && dataset.IsFrontMarker(p.nameBlob[off]) {
			return p.markerError(i)
		}
	}
	return p.checkNewlines()
}

// checkNewlines refuses a column with a name holding a newline, naming its
// row.
func (p *packedNames) checkNewlines() error {
	n := len(p.nameOff) - 1
	at := bytes.IndexByte(p.nameBlob[:p.nameOff[n]], '\n')
	if at < 0 {
		return nil
	}
	row := sort.Search(n, func(i int) bool { return p.nameOff[i+1] > uint64(at) })
	return fmt.Errorf("colstore: domain %d's name %q holds a newline", row, p.name(row))
}

// markerError refuses row i's name, which starts with a front-coding marker.
func (p *packedNames) markerError(i int) error {
	return fmt.Errorf("colstore: domain %d's name %q starts with a front-coding marker", i, p.name(i))
}

// nameLineBuf is the buffer NAMELINE is written through.
const nameLineBuf = 32 << 10

// writeNameLines writes the NAMELINE section: every name front-coded
// against the one before it and followed by '\n'. A first pass counts its
// length, so the payload streams through one fixed buffer with its CRC
// updated as it goes, and a save builds no second copy of the column.
func (p *packedNames) writeNameLines(w io.Writer) error {
	n := len(p.nameOff) - 1
	size := uint64(n)
	var prev []byte
	for i := range n {
		name := p.nameBlob[p.nameOff[i]:p.nameOff[i+1]]
		size += uint64(dataset.FrontCodedLen(prev, name))
		prev = name
	}
	if err := writeSectionHeader(w, secNameLine, size); err != nil {
		return err
	}
	crc := uint32(0)
	emit := func(b []byte) error {
		crc = crc32.Update(crc, worldCRC, b)
		_, err := w.Write(b)
		return err
	}
	buf := make([]byte, 0, nameLineBuf)
	prev = nil
	for i := range n {
		name := p.nameBlob[p.nameOff[i]:p.nameOff[i+1]]
		if len(buf)+len(name)+1 > cap(buf) {
			if err := emit(buf); err != nil {
				return err
			}
			buf = buf[:0]
		}
		buf = append(dataset.AppendFrontCoded(buf, prev, name), '\n')
		prev = name
	}
	if err := emit(buf); err != nil {
		return err
	}
	return writeSectionTrailer(w, size, crc)
}

// unpackNameLines rebuilds the name column from a NAMELINE payload: n
// front-coded names, each followed by '\n', and nothing after the last. A
// name is rebuilt from the one before it and copied into a blob without the
// separators, its offset recounted, so the column has the shape the mapped
// form gives it. A payload of plain names, as written before front coding,
// reads as it did.
func unpackNameLines(payload []byte, n int) (packedNames, error) {
	if len(payload) < n {
		return packedNames{}, fmt.Errorf("colstore: NAMELINE is %d bytes, too short for %d domains", len(payload), n)
	}
	p := packedNames{
		nameBlob: make([]byte, 0, len(payload)-n),
		nameOff:  make([]uint64, 1, n+1),
	}
	rest := payload
	prev := uint64(0) // where the name before starts
	for i := range n {
		end := bytes.IndexByte(rest, '\n')
		if end < 0 {
			if len(rest) > 0 {
				return packedNames{}, fmt.Errorf("colstore: NAMELINE's name %d is not newline-terminated", i)
			}
			return packedNames{}, fmt.Errorf("colstore: NAMELINE holds %d names, want %d", i, n)
		}
		start := uint64(len(p.nameBlob))
		k, tail, err := dataset.SplitFrontCoded(rest[:end], int(start-prev))
		if err != nil {
			return packedNames{}, fmt.Errorf("colstore: NAMELINE's name %d: %v", i, err)
		}
		p.nameBlob = append(p.nameBlob, p.nameBlob[prev:prev+uint64(k)]...)
		p.nameBlob = append(p.nameBlob, tail...)
		p.nameOff = append(p.nameOff, uint64(len(p.nameBlob)))
		rest, prev = rest[end+1:], start
	}
	if len(rest) > 0 {
		return packedNames{}, fmt.Errorf("colstore: NAMELINE has %d bytes after its %d names", len(rest), n)
	}
	return p, nil
}

// unpackNames validates the mapped form's name column — n+1 u64 offsets
// that start at 0, never decrease, never pass the blob and end at its
// length, and no name the line form cannot carry — and returns it as the
// two slices the Index keeps: views of data when zeroCopy, copies
// otherwise. No per-name value is created either way.
func unpackNames(data []byte, blob, offs section, n int, zeroCopy bool) (packedNames, error) {
	if offs.n != 8*(n+1) {
		return packedNames{}, fmt.Errorf("colstore: name offsets section is %d bytes, want %d for %d domains", offs.n, 8*(n+1), n)
	}
	p := packedNames{
		nameBlob: blob.bytes(data),
		nameOff:  unpackColumn(data, offs, zeroCopy, binary.LittleEndian.Uint64),
	}
	if !zeroCopy {
		p.nameBlob = append([]byte(nil), p.nameBlob...)
	}
	if p.nameOff[0] != 0 {
		return packedNames{}, fmt.Errorf("colstore: name offsets start at %d, want 0", p.nameOff[0])
	}
	if p.nameOff[n] != uint64(blob.n) {
		return packedNames{}, fmt.Errorf("colstore: name offsets end at %d, blob is %d bytes", p.nameOff[n], blob.n)
	}
	// One pass checks the offsets and what each name starts with;
	// checkNewlines then looks for a newline.
	prev := uint64(0)
	for i, end := range p.nameOff[1:] {
		if end < prev || end > uint64(blob.n) {
			return packedNames{}, fmt.Errorf("colstore: name offsets are not monotonic at entry %d", i)
		}
		if prev < end && dataset.IsFrontMarker(p.nameBlob[prev]) {
			return packedNames{}, p.markerError(i)
		}
		prev = end
	}
	if err := p.checkNewlines(); err != nil {
		return packedNames{}, err
	}
	return p, nil
}
