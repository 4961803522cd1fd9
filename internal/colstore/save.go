package colstore

// The on-disk world format: a compact, versioned, little-endian column
// layout mirroring the in-memory Index, so a generated world is built
// once, saved, and re-loaded in O(seconds) — memory-mapped where the
// platform allows, so a population larger than RAM degrades to page-cache
// misses instead of OOMing.
//
// Layout:
//
//	header   = magic "regsecW1" | u32 version | u32 endian-marker
//	section  = tag[8] | u64 payloadLen | payload | pad to 8 | u32 CRC32C | u32 0
//
// Every payload starts 8-byte aligned (header and section framing are
// multiples of 8), which is what makes the zero-copy int32/uint32 views
// legal. Each section carries its own length + CRC32C (Castagnoli)
// trailer, the same integrity idiom as the TSV archive format: a
// truncated or bit-flipped file fails loudly at load, never silently.
//
// String tables are stored as one concatenated blob plus an offsets
// column (u32). The per-domain ID, day and flag sections are the Index's
// own slices: on a little-endian host a save writes them as they lie in
// memory. The domain names come in one of two forms:
//
//   - mapped (SaveFile): NAMES, the name blob, and NAMESOFF, its n+1 u64
//     offsets (the blob passes 4 GiB at real-.com scale), which Load maps
//     back without a copy;
//   - line (Save): NAMELINE, every name front-coded against the one
//     before it (dataset.AppendFrontCoded: a marker byte for the prefix
//     they share, then the rest) and followed by '\n' — one byte a domain
//     where NAMESOFF takes eight, less the shared prefixes. The decoder
//     rebuilds the names and recounts the offsets into a heap copy, so it
//     is the form for a world that is deflated and copied on load anyway.
//     A NAMELINE of plain names, as written before front coding, reads as
//     it did: a plain name is a shared prefix of 0.
//
// The derived state — fullDay, event groups, the record template — is
// rebuilt or lazily built at load and never serialized.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"sort"
	"strings"
	"unsafe"

	"securepki.org/registrarsec/internal/dataset"
)

const (
	worldMagic   = "regsecW1"
	worldVersion = 1
	// endianMarker reads back as itself only through a little-endian
	// decode; a byte-swapped file (or a confused writer) is caught at the
	// header.
	endianMarker = 0x01020304
)

// Section tags, fixed order. Load refuses a tag it does not know, naming
// it, so a reader that predates a section fails loudly on a file that
// holds one: NAMELINE came under version 1 that way. The version changes
// only when a known section's meaning does.
const (
	secMeta     = "META\x00\x00\x00\x00"
	secOps      = "OPS\x00\x00\x00\x00\x00"
	secOpsOff   = "OPSOFF\x00\x00"
	secOpNS     = "OPNS\x00\x00\x00\x00"
	secOpNSOff  = "OPNSOFF\x00"
	secTLDs     = "TLDS\x00\x00\x00\x00"
	secTLDsOff  = "TLDSOFF\x00"
	secRegs     = "REGS\x00\x00\x00\x00"
	secRegsOff  = "REGSOFF\x00"
	secNames    = "NAMES\x00\x00\x00"
	secNamesOff = "NAMESOFF"
	secNameLine = "NAMELINE"
	secOpID     = "OPID\x00\x00\x00\x00"
	secTLDID    = "TLDID\x00\x00\x00"
	secRegID    = "REGID\x00\x00\x00"
	secCreated  = "CREATED\x00"
	secKeyDay   = "KEYDAY\x00\x00"
	secDSDay    = "DSDAY\x00\x00\x00"
	secFlags    = "FLAGS\x00\x00\x00"
)

// sectionOrder is the exact on-disk sequence, making a save
// deterministic: the same Index always serializes to the same bytes. A
// file holds either NAMES and NAMESOFF or NAMELINE, never both.
var sectionOrder = []string{
	secMeta,
	secOps, secOpsOff, secOpNS, secOpNSOff,
	secTLDs, secTLDsOff, secRegs, secRegsOff,
	secNames, secNamesOff, secNameLine,
	secOpID, secTLDID, secRegID,
	secCreated, secKeyDay, secDSDay, secFlags,
}

var worldCRC = crc32.MakeTable(crc32.Castagnoli)

// Save serializes the index in the line form. meta is an arbitrary
// key=value annotation block (world configuration, fingerprints) returned
// verbatim by Load; keys must not contain '=' or newlines, values must not
// contain newlines.
func (x *Index) Save(w io.Writer, meta map[string]string) error {
	return x.save(w, meta, false)
}

// SaveFile writes the index to path in the mapped form, durably and
// atomically (through a dataset.AtomicFile): a crash mid-save leaves
// either the old file or none, never a torn one.
func (x *Index) SaveFile(path string, meta map[string]string) error {
	f, err := dataset.CreateAtomic(path, 1<<20)
	if err != nil {
		return err
	}
	defer f.Abort()
	if err := x.save(f, meta, true); err != nil {
		return err
	}
	return f.Commit()
}

// save writes the index in the mapped form (NAMES and NAMESOFF) or the
// line form (NAMELINE). Either refuses a name holding a newline or starting
// with a front-coding marker, so both forms carry the same indexes. The
// line form refuses before it writes a byte. The mapped form, SaveFile's,
// checks the names and sums its sections on a second goroutine while it
// writes, and refuses once its bytes are out: in SaveFile they are a temp
// file that a refusal never commits.
func (x *Index) save(w io.Writer, meta map[string]string, mapped bool) error {
	if x.closed.Load() {
		return ErrClosed
	}
	metaPayload, err := encodeMeta(meta)
	if err != nil {
		return err
	}
	if !mapped {
		if err := x.checkNames(); err != nil {
			return err
		}
	}

	opsBlob, opsOff := packStrings32(x.ops)
	nsHosts := make([]string, len(x.opNS))
	for i, hosts := range x.opNS {
		nsHosts[i] = hosts[0]
	}
	nsBlob, nsOff := packStrings32(nsHosts)
	tldBlob, tldOff := packStrings32(x.tlds)
	regBlob, regOff := packStrings32(x.regs)

	payloads := map[string][]byte{
		secMeta:    metaPayload,
		secOps:     opsBlob,
		secOpsOff:  opsOff,
		secOpNS:    nsBlob,
		secOpNSOff: nsOff,
		secTLDs:    tldBlob,
		secTLDsOff: tldOff,
		secRegs:    regBlob,
		secRegsOff: regOff,
		secOpID:    columnBytes(x.opID, binary.LittleEndian.PutUint32),
		secTLDID:   columnBytes(x.tldID, binary.LittleEndian.PutUint16),
		secRegID:   columnBytes(x.regID, binary.LittleEndian.PutUint32),
		secCreated: columnBytes(x.created, putInt32),
		secKeyDay:  columnBytes(x.keyDay, putInt32),
		secDSDay:   columnBytes(x.dsDay, putInt32),
		secFlags:   x.flags,
	}
	if mapped {
		payloads[secNames] = x.nameBlob
		payloads[secNamesOff] = columnBytes(x.nameOff, binary.LittleEndian.PutUint64)
	}
	var crcs chan uint32
	var checked chan error
	if mapped {
		// Room for every section's CRC: the summing goroutine never
		// waits for the writer, and ends whatever the writer does.
		crcs = make(chan uint32, len(sectionOrder))
		checked = make(chan error, 1)
		go func() {
			for _, tag := range sectionOrder {
				if payload, ok := payloads[tag]; ok {
					crcs <- crc32.Checksum(payload, worldCRC)
				}
			}
			checked <- x.checkNames()
		}()
	}
	err = x.writeSections(w, payloads, crcs)
	if mapped {
		// Wait for the second goroutine whatever the write did: the
		// caller may unmap the columns it reads once save returns.
		if cerr := <-checked; err == nil {
			err = cerr
		}
	}
	return err
}

// writeSections writes the header and payloads' sections in sectionOrder,
// and NAMELINE in its place when payloads holds no NAMES. A payload's CRC
// is summed here, or taken from crcs, which has them in the same order.
func (x *Index) writeSections(w io.Writer, payloads map[string][]byte, crcs <-chan uint32) error {
	var hdr [16]byte
	copy(hdr[:8], worldMagic)
	binary.LittleEndian.PutUint32(hdr[8:12], worldVersion)
	binary.LittleEndian.PutUint32(hdr[12:16], endianMarker)
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, mapped := payloads[secNames]
	for _, tag := range sectionOrder {
		payload, ok := payloads[tag]
		var err error
		switch {
		case tag == secNameLine && !mapped:
			err = x.writeNameLines(w)
		case ok:
			err = writeSection(w, tag, payload, crcs)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

// writeSection frames one payload: tag, length, payload, alignment
// padding, CRC32C trailer. The CRC is the next one crcs yields, or summed
// here when crcs is nil.
func writeSection(w io.Writer, tag string, payload []byte, crcs <-chan uint32) error {
	if err := writeSectionHeader(w, tag, uint64(len(payload))); err != nil {
		return err
	}
	if _, err := w.Write(payload); err != nil {
		return err
	}
	var crc uint32
	if crcs != nil {
		crc = <-crcs
	} else {
		crc = crc32.Checksum(payload, worldCRC)
	}
	return writeSectionTrailer(w, uint64(len(payload)), crc)
}

// writeSectionHeader writes a section's tag and payload length.
func writeSectionHeader(w io.Writer, tag string, n uint64) error {
	if len(tag) != 8 {
		return fmt.Errorf("colstore: section tag %q is not 8 bytes", tag)
	}
	var hdr [16]byte
	copy(hdr[:8], tag)
	binary.LittleEndian.PutUint64(hdr[8:16], n)
	_, err := w.Write(hdr[:])
	return err
}

// writeSectionTrailer pads an n-byte payload to 8 bytes and writes its
// CRC32C trailer.
func writeSectionTrailer(w io.Writer, n uint64, crc uint32) error {
	var trailer [16]byte // up to 7 pad bytes + 8-byte CRC trailer
	pad := (8 - n%8) % 8
	binary.LittleEndian.PutUint32(trailer[pad:], crc)
	_, err := w.Write(trailer[:pad+8])
	return err
}

// encodeMeta renders the annotation block as sorted k=v lines.
func encodeMeta(meta map[string]string) ([]byte, error) {
	keys := make([]string, 0, len(meta))
	for k := range meta {
		if strings.ContainsAny(k, "=\n") || k == "" {
			return nil, fmt.Errorf("colstore: invalid meta key %q", k)
		}
		if strings.Contains(meta[k], "\n") {
			return nil, fmt.Errorf("colstore: meta value for %q contains a newline", k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var buf bytes.Buffer
	for _, k := range keys {
		fmt.Fprintf(&buf, "%s=%s\n", k, meta[k])
	}
	return buf.Bytes(), nil
}

// packStrings32 concatenates strings into a blob with n+1 uint32 offsets.
func packStrings32(list []string) (blob, offsets []byte) {
	size := 0
	for _, s := range list {
		size += len(s)
	}
	blob = make([]byte, 0, size)
	offsets = make([]byte, 4*(len(list)+1))
	for i, s := range list {
		binary.LittleEndian.PutUint32(offsets[4*i:], uint32(len(blob)))
		blob = append(blob, s...)
	}
	binary.LittleEndian.PutUint32(offsets[4*len(list):], uint32(len(blob)))
	return blob, offsets
}

// columnBytes is a fixed-width column as its section payload. On a
// little-endian host that is the column's own memory, so saving a world
// costs no second copy of it; elsewhere each element is encoded with put.
func columnBytes[T uint16 | uint32 | uint64 | int32](v []T, put func([]byte, T)) []byte {
	var zero T
	width := int(unsafe.Sizeof(zero))
	if hostLittleEndian {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), width*len(v))
	}
	out := make([]byte, width*len(v))
	for i, e := range v {
		put(out[width*i:], e)
	}
	return out
}

func putInt32(b []byte, v int32) { binary.LittleEndian.PutUint32(b, uint32(v)) }
