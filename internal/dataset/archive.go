package dataset

import (
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"securepki.org/registrarsec/internal/simtime"
)

// The journaled archive format wraps each TSV snapshot section with an
// integrity trailer:
//
//	#snapshot <day> <count>
//	<record>
//	...
//	#end <day> <bytes> <crc32c>
//
// <bytes> is the length of the section from the '#' of its header through
// the final record's newline, and <crc32c> is the CRC-32 (Castagnoli) of
// those bytes, in %08x. The trailer makes the two disk failure modes of a
// long-running sweep detectable: a section missing its trailer was
// interrupted mid-write (torn write), and a section whose bytes no longer
// hash to its trailer was corrupted at rest (bit rot, partial overwrite).
// The reader quarantines damaged sections with a precise reason and
// salvages every intact one — a 21-month daily series must never silently
// mis-parse one bad day into its adoption curves.
//
// On disk each section is one RFC 1952 gzip member (writeSection, through
// MemberWriter: 128 KiB blocks deflated at level 4 on every core) whose
// text is exactly the lines above, so zcat of an archive prints its text
// form, and `zcat archive.tsv | grep …` reads it.
// Members only: every member starts with the same 10 bytes (memberHeader:
// no flags, no modification time), the only thing that starts a section;
// any other bytes between sections are a stray run up to the next member
// header, and a file that starts with a text section header — the form of
// the writers before members — is refused (ErrTextArchive). The member's
// own CRC-32 and length guard its bytes, the trailer its text. A member
// that is cut short at the end of the input may still be growing: a
// tailer leaves it, a batch reader quarantines it. A member that fails to
// inflate, fails its checksums, or whose text is not exactly one intact
// section is damage, final up to where its decoder stopped — unless the
// bytes the decoder read hold another member header, in which case the
// decoder may have read past the damage into what follows, and the damage
// runs from the member's first byte to that header. An event's offsets
// are member boundaries, and damage in a member is located at its first
// byte.

// trailerHeader closes one archived snapshot section.
const trailerHeader = "#end"

// castagnoli is the CRC-32C polynomial table (the checksum used by ext4,
// btrfs and iSCSI for exactly this job).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteArchiveSection writes the snapshot as one trailered section.
func (s *Snapshot) WriteArchiveSection(w io.Writer) error {
	_, err := writeSection(w, s.Day, len(s.Records), nil, func(emit func(line []byte) error) error {
		return eachLine(s.Records, emit)
	})
	return err
}

// Corruption describes one quarantined piece of an archive.
type Corruption struct {
	// Day is the section's day token as written (it may itself be damaged;
	// empty when the damage precedes any section header).
	Day string
	// Line is the 1-based line number where the damage was anchored: the
	// first line of the damaged member or of the stray run. It counts lines
	// as zcat prints them: a member's text lines; a stray run, and a
	// damaged member that runs into the next section, count as one line
	// each. It counts from where the scan started — the top of the file for
	// ReadArchive, the resume offset for a tail scan — so String leaves it
	// to callers that read a whole file.
	Line int
	// Offset is the absolute byte offset of that line in the archive —
	// of its member's first byte for a line in a member — whichever scan
	// found it.
	Offset int64
	// Reason says which integrity check failed.
	Reason string
}

func (c Corruption) String() string {
	if c.Day == "" {
		return fmt.Sprintf("byte %d: %s", c.Offset, c.Reason)
	}
	return fmt.Sprintf("section %s (byte %d): %s", c.Day, c.Offset, c.Reason)
}

// ArchiveReport is the integrity accounting of one ReadArchive pass.
type ArchiveReport struct {
	// Sections counts the snapshot sections encountered, intact or not.
	Sections int
	// Quarantined lists everything that failed verification and was kept
	// out of the store.
	Quarantined []Corruption
}

// Clean reports whether the whole archive verified.
func (r *ArchiveReport) Clean() bool { return len(r.Quarantined) == 0 }

// String renders a one-line summary for logs.
func (r *ArchiveReport) String() string {
	if r.Clean() {
		return fmt.Sprintf("archive: %d section(s), all verified", r.Sections)
	}
	reasons := make([]string, 0, len(r.Quarantined))
	for _, c := range r.Quarantined {
		reasons = append(reasons, c.String())
	}
	return fmt.Sprintf("archive: %d section(s), %d quarantined [%s]",
		r.Sections, len(r.Quarantined), strings.Join(reasons, "; "))
}

// ScanArchive reads a trailered archive in salvage mode, one section in
// memory at a time beside the key the next keyed section reads (keyed.go):
// fn sees every section whose trailer verifies (length, CRC32C, declared
// record count, unique day, and a keyed section's key) as soon as it
// closes; torn, truncated, corrupted and duplicate sections, and keyed
// sections whose key does not verify, are quarantined in the report with a
// precise reason instead of being silently mis-parsed. A snapshot fn sees
// is read-only: a later keyed section may carry its records. It is
// the batch fold over the section scanner (tail.go): the input is final,
// so whatever the scanner left undecided at its end is damage too. The
// returned error is non-nil only for I/O failures and fn's errors —
// corruption is data, not an error.
func ScanArchive(r io.Reader, fn func(*Snapshot) error) (*ArchiveReport, error) {
	report := &ArchiveReport{}
	seen := map[simtime.Day]bool{}
	sc := newSectionScanner(r, 0, nil)
	for {
		ev, err := sc.next()
		report.Sections = sc.sections
		if err == io.EOF {
			if sc.stray != nil {
				report.Quarantined = append(report.Quarantined, *sc.stray)
			}
			return report, nil
		}
		if err != nil {
			return report, err
		}
		switch {
		case ev.Damage != nil:
			report.Quarantined = append(report.Quarantined, *ev.Damage)
		case seen[ev.Snap.Day]:
			// Only the first verified section of a day is kept.
			dup := ev.At
			dup.Reason = "duplicate snapshot day"
			report.Quarantined = append(report.Quarantined, dup)
		default:
			seen[ev.Snap.Day] = true
			if err := fn(ev.Snap); err != nil {
				return report, err
			}
		}
	}
}

// ReadArchive is ScanArchive into a store of every verified section.
func ReadArchive(r io.Reader) (*Store, *ArchiveReport, error) {
	store := NewStore()
	report, err := ScanArchive(r, func(snap *Snapshot) error {
		store.Add(snap)
		return nil
	})
	return store, report, err
}

// ReadArchiveStrict is ReadArchive for pipelines that must not proceed on
// damage: any quarantined section is promoted to an error.
func ReadArchiveStrict(r io.Reader) (*Store, error) {
	store, report, err := ReadArchive(r)
	if err != nil {
		return nil, err
	}
	if !report.Clean() {
		return nil, fmt.Errorf("dataset: %s", report)
	}
	return store, nil
}

// ReadArchiveFile opens and salvage-reads an archive file.
func ReadArchiveFile(path string) (*Store, *ArchiveReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	return ReadArchive(f)
}
