package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
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

// trailerHeader closes one archived snapshot section.
const trailerHeader = "#end"

// castagnoli is the CRC-32C polynomial table (the checksum used by ext4,
// btrfs and iSCSI for exactly this job).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteArchiveSection writes the snapshot as one trailered section.
func (s *Snapshot) WriteArchiveSection(w io.Writer) error {
	var buf bytes.Buffer
	if err := s.WriteTSV(&buf); err != nil {
		return err
	}
	if _, err := w.Write(buf.Bytes()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s\t%s\t%d\t%08x\n", trailerHeader, s.Day,
		buf.Len(), crc32.Checksum(buf.Bytes(), castagnoli))
	return err
}

// WriteArchive writes every snapshot, oldest first, with an integrity
// trailer per section.
func (s *Store) WriteArchive(w io.Writer) error {
	for _, day := range s.Days() {
		if err := s.Get(day).WriteArchiveSection(w); err != nil {
			return err
		}
	}
	return nil
}

// Corruption describes one quarantined piece of an archive.
type Corruption struct {
	// Day is the section's day token as written (it may itself be damaged;
	// empty when the damage precedes any section header).
	Day string
	// Line is the 1-based line number where the damage was anchored — the
	// section header for section-level damage, the offending line otherwise.
	Line int
	// Reason says which integrity check failed.
	Reason string
}

func (c Corruption) String() string {
	if c.Day == "" {
		return fmt.Sprintf("line %d: %s", c.Line, c.Reason)
	}
	return fmt.Sprintf("section %s (line %d): %s", c.Day, c.Line, c.Reason)
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

// section is the in-flight parse state of one archive section.
type section struct {
	day      string      // raw day token from the header
	parsed   simtime.Day // valid only when bad == ""
	declared int
	headerLn int
	raw      bytes.Buffer // exact section bytes, for the CRC check
	snap     *Snapshot
	bad      string // first structural defect, "" while intact
}

// ReadArchive reads a trailered archive in salvage mode: every section
// whose trailer verifies (length, CRC32C, declared record count, unique
// day) lands in the store; torn, truncated, corrupted and duplicate
// sections are quarantined in the report with a precise reason instead of
// being silently mis-parsed. The returned error is non-nil only for I/O
// failures — corruption is data, not an error.
func ReadArchive(r io.Reader) (*Store, *ArchiveReport, error) {
	store := NewStore()
	report := &ArchiveReport{}
	br := bufio.NewReaderSize(r, 64*1024)

	var cur *section
	quarantine := func(s *section, reason string) {
		report.Quarantined = append(report.Quarantined,
			Corruption{Day: s.day, Line: s.headerLn, Reason: reason})
	}
	orphan := false // suppress repeated reports for one stray run
	lineNo := 0
	for {
		line, readErr := br.ReadString('\n')
		if line != "" {
			lineNo++
			full := strings.HasSuffix(line, "\n")
			text := strings.TrimSuffix(line, "\n")
			fields := strings.Split(text, "\t")
			switch fields[0] {
			case tsvHeader:
				if cur != nil {
					quarantine(cur, "missing trailer (torn write)")
				}
				report.Sections++
				cur = &section{headerLn: lineNo, declared: -1}
				cur.raw.WriteString(line)
				if len(fields) >= 2 {
					cur.day = fields[1]
				}
				day, declared, err := parseSnapshotHeader(fields)
				switch {
				case err != nil:
					cur.bad = fmt.Sprintf("bad header: %v", err)
				case !full:
					cur.bad = "truncated mid-header"
				default:
					cur.parsed, cur.declared = day, declared
					cur.snap = &Snapshot{Day: day}
				}
				orphan = false

			case trailerHeader:
				if cur == nil {
					if !orphan {
						report.Quarantined = append(report.Quarantined,
							Corruption{Line: lineNo, Reason: "trailer without a section"})
						orphan = true
					}
					continue
				}
				if reason := verifyTrailer(cur, fields, full, store); reason != "" {
					quarantine(cur, reason)
				} else {
					store.Add(cur.snap)
				}
				cur = nil

			default:
				if cur == nil {
					if text == "" {
						continue // blank lines between sections are tolerated
					}
					if !orphan {
						report.Quarantined = append(report.Quarantined,
							Corruption{Line: lineNo, Reason: "records outside any section"})
						orphan = true
					}
					continue
				}
				cur.raw.WriteString(line)
				if cur.bad != "" {
					continue // keep consuming the damaged section's bytes
				}
				switch {
				case !full:
					cur.bad = "truncated mid-record"
				case text == "":
					cur.bad = "blank line inside section"
				default:
					rec, err := parseRecordFields(fields)
					if err != nil {
						cur.bad = fmt.Sprintf("line %d: %v", lineNo, err)
					} else {
						cur.snap.Records = append(cur.snap.Records, rec)
					}
				}
			}
		}
		if readErr == io.EOF {
			break
		}
		if readErr != nil {
			return store, report, readErr
		}
	}
	if cur != nil {
		quarantine(cur, "truncated section (no trailer)")
	}
	return store, report, nil
}

// verifyTrailer runs every integrity check for a section against its
// trailer line, returning "" when the section is intact or the reason it
// must be quarantined.
func verifyTrailer(cur *section, fields []string, full bool, store *Store) string {
	if reason := checkTrailer(cur, fields, full); reason != "" {
		return reason
	}
	if store.Get(cur.parsed) != nil {
		return "duplicate snapshot day"
	}
	return ""
}

// checkTrailer is verifyTrailer minus the store-level duplicate-day check:
// the integrity of one section in isolation, shared with the tail scanner
// (whose duplicate policy is the ingester's idempotency, not a store).
func checkTrailer(cur *section, fields []string, full bool) string {
	if cur.bad != "" {
		return cur.bad
	}
	if !full || len(fields) != 4 {
		return "malformed trailer"
	}
	if fields[1] != cur.day {
		return fmt.Sprintf("trailer day %q does not match section day %q", fields[1], cur.day)
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil || wantLen < 0 {
		return fmt.Sprintf("malformed trailer length %q", fields[2])
	}
	wantCRC, err := strconv.ParseUint(fields[3], 16, 32)
	if err != nil {
		return fmt.Sprintf("malformed trailer checksum %q", fields[3])
	}
	if wantLen != cur.raw.Len() {
		return fmt.Sprintf("length mismatch: trailer declares %d bytes, section has %d", wantLen, cur.raw.Len())
	}
	if got := crc32.Checksum(cur.raw.Bytes(), castagnoli); got != uint32(wantCRC) {
		return fmt.Sprintf("checksum mismatch: trailer %08x, section %08x", uint32(wantCRC), got)
	}
	if cur.declared >= 0 && cur.declared != len(cur.snap.Records) {
		return fmt.Sprintf("record count mismatch: header declares %d, found %d", cur.declared, len(cur.snap.Records))
	}
	return ""
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
