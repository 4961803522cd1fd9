package dataset

import (
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"securepki.org/registrarsec/internal/simtime"
)

// Keyed sections. A daily sweep of the same domains finds almost every
// record as it was the day before, so a multi-day archive writes most of its
// sections against a key: a self-contained section before it in the same
// file. The keyed section's header names the key,
//
//	#snapshot <day> <count> key=<key day>:<distance>:<key crc>
//
// <distance> being how many bytes the key's member starts before this
// section's, and <key crc> the key's trailer checksum, in %08x. A relative
// distance keeps archives joined with cat resolvable. The record lines keep
// the (TLD, domain) order, and the reader walks the key's records with a
// cursor in the same order:
//
//	^             the key's next record, unchanged
//	^<TAB>fields  the key's next domain, with fields of its own (the NS-set
//	              dictionary included), coded as a record line's are
//	^<n>…         either form, after first skipping n of the key's records
//	              (domains this day lacks); n has no sign and no leading zero
//
// Any other line is an explicit record — a domain the key lacks — its domain
// front-coded against the record before it, carried or not. A section's
// checksum covers its header, so the key it names is checked with the rest.
//
// The writer (keyer, behind ArchiveWriter) makes the first section of a file
// a key, and then every keyEvery-th; the sections between are keyed to the
// last key. It keeps the key's record lines as it rendered them and merges
// each later day's sorted lines against them. Snapshot.WriteArchiveSection,
// a SpillWriter's WriteSectionTo and checkpoint chunks stay self-contained.
//
// The reader (sectionScanner) holds the last self-contained section it
// accepted and reads a keyed section's carries from it. A keyed section whose
// key is not held, whose key's day or checksum is not the one its header
// names, or whose carries run past the key's last record is quarantined
// whole, with a reason that names the key. A scan that starts past the key —
// a tailer resuming at a keyed section — reads the key back from the file
// first (sectionScanner.keyFor).

// keyEvery is how often a section of a multi-day archive is a key: a week of
// the paper's daily sweeps. One damaged key costs its section and at most
// keyEvery-1 keyed ones.
const keyEvery = 7

// carryMark starts a carried record line.
const carryMark = '^'

// keyRef is what a keyed section's header names of its key.
type keyRef struct {
	day  simtime.Day
	dist int64  // how many bytes the key starts before the keyed section
	crc  uint32 // the key's trailer checksum
}

// parseKeyField parses a header's "key=<day>:<distance>:<crc>" field, in the
// one spelling writeSection writes.
func parseKeyField(field string) (*keyRef, error) {
	spec, ok := strings.CutPrefix(field, "key=")
	parts := strings.Split(spec, ":")
	if !ok || len(parts) != 3 {
		return nil, fmt.Errorf("bad key field %q", field)
	}
	day, err := simtime.Parse(parts[0])
	if err != nil || day.String() != parts[0] {
		return nil, fmt.Errorf("bad key day %q", parts[0])
	}
	dist, err := strconv.ParseInt(parts[1], 10, 64)
	if err != nil || dist <= 0 || strconv.FormatInt(dist, 10) != parts[1] {
		return nil, fmt.Errorf("bad key distance %q", parts[1])
	}
	crc, err := strconv.ParseUint(parts[2], 16, 32)
	if err != nil || fmt.Sprintf("%08x", crc) != parts[2] {
		return nil, fmt.Errorf("bad key checksum %q", parts[2])
	}
	return &keyRef{day: day, dist: dist, crc: uint32(crc)}, nil
}

// sectionKey is what writeSection writes a keyed section against.
type sectionKey struct {
	keyRef
	text []byte // the key's record lines, as appendRecord renders them
}

// keyCursor walks a key's record lines in order for the writer.
type keyCursor struct {
	rest        []byte // the lines after line
	line        []byte // the key's next line, nil past its last
	domain, tld []byte // line's sort key
	skipped     int    // lines passed over since the last carry
}

// advance moves to the key's next line.
func (k *keyCursor) advance() (err error) {
	if len(k.rest) == 0 {
		k.line = nil
		return nil
	}
	i := bytes.IndexByte(k.rest, '\n') + 1
	k.line, k.rest = k.rest[:i], k.rest[i:]
	k.domain, k.tld, err = lineKey(k.line)
	return err
}

// carry appends the carry of a rendered line to dst when the key holds its
// domain, passing over the key's lines that sort before it, and reports
// whether it did. The lines handed to carry must ascend.
func (k *keyCursor) carry(dst, line, tld, domain []byte, dict *nsDict) ([]byte, bool, error) {
	for k.line != nil {
		c := compareKeys(k.tld, k.domain, tld, domain)
		if c > 0 {
			break
		}
		if c == 0 {
			dst = append(dst, carryMark)
			if k.skipped > 0 {
				dst = strconv.AppendInt(dst, int64(k.skipped), 10)
			}
			if bytes.Equal(k.line, line) {
				dst = append(dst, '\n')
			} else {
				dst = dict.append(dst, line[len(domain):])
			}
			k.skipped = 0
			return dst, true, k.advance()
		}
		k.skipped++
		if err := k.advance(); err != nil {
			return dst, false, err
		}
	}
	return dst, false, nil
}

// keyer is a multi-day archive writer's memory of its current key: the
// key's place in the file and its record lines, one line of text per
// record of the key's day.
type keyer struct {
	sections int // written so far
	key      keyRef
	off      int64  // where the key starts in the file
	text     []byte // the key's record lines
}

// section writes one day's section at file offset off: a key when it is the
// first or keyEvery sections follow the last key, keyed to the last key
// otherwise. body is as writeSection's.
func (k *keyer) section(out io.Writer, off int64, day simtime.Day, count int, body func(emit func(line []byte) error) error) error {
	if k.sections%keyEvery != 0 {
		k.sections++
		key := &sectionKey{keyRef: keyRef{day: k.key.day, dist: off - k.off, crc: k.key.crc}, text: k.text}
		_, err := writeSection(out, day, count, key, body)
		return err
	}
	// A key is self-contained: the last key's lines are not needed while
	// it is written, and their buffer takes the new key's.
	text := k.text[:0]
	k.text = nil
	crc, err := writeSection(out, day, count, nil, func(emit func(line []byte) error) error {
		return body(func(line []byte) error {
			text = append(text, line...)
			return emit(line)
		})
	})
	if err != nil {
		return err
	}
	k.sections++
	k.key, k.off, k.text = keyRef{day: day, crc: crc}, off, text
	return nil
}
