package dataset

// Incremental archive tailing: the always-on observatory re-reads only
// the archive's growing tail, not the whole file, and must distinguish
// three tail states a batch reader never sees:
//
//   - a complete, verified section → consume it and advance the offset;
//   - damage that is *final* — a section whose trailer fails
//     verification, or a torn/stray run superseded by a newer section
//     header → quarantine and consume;
//   - a trailing section (or stray run) nothing has superseded yet →
//     possibly still being appended: leave it unconsumed and re-examine
//     on the next poll.
//
// One scanner reads the format for everyone — ReadArchive, TailArchive and
// the observatory's ingest are its callers. It yields one event at a time,
// holding one section in memory, each event carrying the exact
// resume offset after consuming it. Consumers that persist their cursor
// commit only at event boundaries (or at Offset, past any trailing blank
// lines), which makes the consumed state a pure function of the archive
// prefix before the cursor — the same purity that makes colstore ingest
// crash-safe: however a run of polls is interrupted and resumed, the
// sequence of events before any committed offset is identical to a
// single clean scan. A partial final line is never consumed (the writer
// may be mid-write), and blank lines between sections are consumed
// silently. ReadArchive, whose input is final, quarantines the third
// state too.

import (
	"bufio"
	"cmp"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"strings"
)

// ErrTailTruncated reports that the archive is now smaller than the
// resume offset: it was rewritten or rotated underneath the tailer, and
// the caller must reset to a full re-ingest rather than resume.
var ErrTailTruncated = errors.New("dataset: archive shrank below the resume offset")

// TailEvent is one consumed outcome: exactly one of Snap and Damage is
// non-nil.
type TailEvent struct {
	// Snap is a verified section's snapshot.
	Snap *Snapshot
	// Damage describes a quarantined section or stray run.
	Damage *Corruption
	// At locates what the event consumed — the section's header, or a stray
	// run's first line: the day token as written, the line and the absolute
	// offset. For damage it is *Damage.
	At Corruption
	// End is the absolute archive offset just past this event: resuming
	// a scan there yields exactly the events after this one.
	End int64
}

// TailResult is the outcome of one tail scan.
type TailResult struct {
	// Events lists everything consumed, in file order. Day-level
	// deduplication is deliberately not applied here; the consumer's
	// ingest is idempotent per day.
	Events []TailEvent
	// Offset is the absolute resume offset: at least the last event's
	// End, plus any trailing blank lines. Every byte before it has been
	// consumed, every byte after it has not.
	Offset int64
}

// Quarantined returns the damage entries, in file order.
func (r *TailResult) Quarantined() []Corruption {
	var out []Corruption
	for _, ev := range r.Events {
		if ev.Damage != nil {
			out = append(out, *ev.Damage)
		}
	}
	return out
}

// TailArchive scans path's bytes from offset `from` (the Offset or an
// event End of a previous scan, 0 for a fresh start) and returns whatever
// complete sections have appeared since. An archive smaller than `from`
// returns ErrTailTruncated.
func TailArchive(path string, from int64) (*TailResult, error) {
	var events []TailEvent
	offset, err := ScanArchiveFile(path, from, func(ev TailEvent) error {
		events = append(events, ev)
		return nil
	})
	if err != nil {
		return nil, err
	}
	return &TailResult{Events: events, Offset: offset}, nil
}

// ScanArchiveFile is TailArchive one event at a time: fn sees each event as
// soon as its section closes, while only that section is in memory, and the
// resume offset comes back at end of input. An error from fn stops the scan
// and is returned; every event delivered before it is a valid resume point.
func ScanArchiveFile(path string, from int64, fn func(TailEvent) error) (int64, error) {
	if from < 0 {
		return 0, fmt.Errorf("dataset: negative tail offset %d", from)
	}
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return 0, err
	}
	if st.Size() < from {
		return 0, fmt.Errorf("%w: offset %d, archive is %d bytes", ErrTailTruncated, from, st.Size())
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return 0, err
	}
	sc := newSectionScanner(f, from)
	for {
		ev, err := sc.next()
		if err == io.EOF {
			return sc.offset, nil
		}
		if err != nil {
			return 0, err
		}
		if err := fn(ev); err != nil {
			return 0, err
		}
	}
}

// section is the in-flight parse state of one archive section. Its length
// and checksum are kept running, so verifying the trailer needs no second
// copy of the section's bytes.
type section struct {
	at       Corruption // day token as written, header line and offset; no reason yet
	declared int
	n        int    // bytes from the header through the latest record line
	crc      uint32 // CRC32C of those bytes
	snap     *Snapshot
	bad      string // first structural defect, "" while intact
	sets     nsSets // the NS sets the section's lines have defined so far
}

func (c *section) damage(reason string) *Corruption {
	d := c.at
	d.Reason = reason
	return &d
}

// sectionScanner is the one reader of the trailered format: a line-by-line
// state machine over any io.Reader, started at absolute offset base.
type sectionScanner struct {
	br     *bufio.Reader
	pos    int64 // offset of the next unread line
	lineNo int
	cur    *section    // open snapshot section, nil otherwise
	stray  *Corruption // open stray run, nil otherwise
	fields []string    // the line in hand, split at its tabs

	// offset is the resume point: every byte before it has been consumed,
	// by an event or as a blank line between sections.
	offset int64
	// sections counts the section headers seen, intact or not.
	sections int
	// undecided, complete once next has returned io.EOF, is what the bytes
	// from offset on amount to if the input ends here — an open section,
	// an open stray run, a partial line — as the damage a batch reader
	// quarantines and a tailer leaves for its next poll.
	undecided []Corruption
}

// maxPresized bounds the records a section header's count reserves room
// for before any record is read.
const maxPresized = 1 << 12

// scanBufSize is the scanner's read buffer: how far it reads ahead of the
// line it is deciding.
const scanBufSize = 64 << 10

func newSectionScanner(r io.Reader, base int64) *sectionScanner {
	return &sectionScanner{br: bufio.NewReaderSize(r, scanBufSize), pos: base, offset: base}
}

// readLine returns the next line including its newline, valid until the
// next read; only a line longer than the buffer is copied. At end of input
// the line lacks the newline, or is empty.
func (s *sectionScanner) readLine() ([]byte, error) {
	line, err := s.br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		long := append([]byte(nil), line...)
		for err == bufio.ErrBufferFull {
			line, err = s.br.ReadSlice('\n')
			long = append(long, line...)
		}
		line = long
	}
	if err == io.EOF {
		err = nil
	}
	return line, err
}

// next returns the next event — a verified snapshot, or damage that is
// final — or io.EOF at end of input, after which offset, sections and
// undecided are settled.
func (s *sectionScanner) next() (TailEvent, error) {
	for {
		line, err := s.readLine()
		if err != nil {
			return TailEvent{}, err
		}
		if len(line) == 0 {
			break
		}
		full := line[len(line)-1] == '\n'
		ev, ok := s.step(line, full)
		s.pos += int64(len(line))
		if !full {
			// A line still being written decides nothing and is never
			// consumed; what step made of it goes with the undecided.
			if ok {
				s.undecided = append(s.undecided, *ev.Damage)
			}
			break
		}
		if ok {
			s.offset = ev.End
			return ev, nil
		}
	}
	// A trailing open section or stray run has not been superseded — it
	// may still be growing.
	if s.cur != nil {
		s.undecided = append(s.undecided, *s.cur.damage("truncated section (no trailer)"))
	}
	if s.stray != nil {
		s.undecided = append(s.undecided, *s.stray)
	}
	s.cur, s.stray = nil, nil
	return TailEvent{}, io.EOF
}

// step advances the state machine by one line at s.pos and reports the
// event the line closes, if any. A line without its newline (full false,
// the last of the input) goes through the same cases: none of them can
// verify a section with it.
func (s *sectionScanner) step(line []byte, full bool) (ev TailEvent, ok bool) {
	s.lineNo++
	end := s.pos + int64(len(line))
	text := strings.TrimSuffix(string(line), "\n")
	s.fields = appendFields(s.fields[:0], text)
	fields := s.fields
	here := Corruption{Line: s.lineNo, Offset: s.pos}
	switch fields[0] {
	case tsvHeader:
		// A new header supersedes whatever was open: that damage is final.
		switch {
		case s.stray != nil:
			ev, ok = damaged(s.stray, s.pos), true
			s.stray = nil
		case s.cur != nil:
			ev, ok = damaged(s.cur.damage("missing trailer (torn write)"), s.pos), true
		}
		s.sections++
		s.cur = &section{at: here, declared: -1}
		if len(fields) >= 2 {
			s.cur.at.Day = fields[1]
		}
		s.cur.add(line)
		if day, declared, err := parseSnapshotHeader(fields); err != nil {
			s.cur.bad = fmt.Sprintf("bad header: %v", err)
		} else {
			s.cur.declared = declared
			// The header's count is untrusted: it sizes the record slice
			// only up to maxPresized records.
			s.cur.snap = &Snapshot{Day: day, Records: make([]Record, 0, min(max(declared, 0), maxPresized))}
		}

	case trailerHeader:
		if s.cur == nil {
			s.strayRun(here, "trailer without a section")
			break
		}
		// The trailer is not part of the checksummed section body.
		if reason := s.cur.check(fields, full); reason != "" {
			ev = damaged(s.cur.damage(reason), end)
		} else {
			ev = TailEvent{Snap: s.cur.snap, At: s.cur.at, End: end}
		}
		ok = true
		s.cur = nil

	default:
		switch {
		case s.cur != nil:
			s.cur.record(line, text, fields)
		case text != "":
			s.strayRun(here, "records outside any section")
		case s.stray == nil:
			s.offset = end // blank lines between sections are consumed silently
		}
	}
	return ev, ok
}

// appendFields appends text's tab-separated fields to dst, as
// strings.Split(text, "\t") would return them.
func appendFields(dst []string, text string) []string {
	for {
		i := strings.IndexByte(text, '\t')
		if i < 0 {
			return append(dst, text)
		}
		dst, text = append(dst, text[:i]), text[i+1:]
	}
}

// damaged is the event that consumes one piece of damage, up to end.
func damaged(d *Corruption, end int64) TailEvent {
	return TailEvent{Damage: d, At: *d, End: end}
}

// strayRun opens a stray run at the first non-blank line outside any
// section, unless one is already open: the run is one piece of damage,
// pending until a section header supersedes it.
func (s *sectionScanner) strayRun(at Corruption, reason string) {
	if s.stray == nil {
		at.Reason = reason
		s.stray = &at
	}
}

// add extends the section's running length and checksum by one line.
func (c *section) add(line []byte) {
	c.n += len(line)
	c.crc = crc32.Update(c.crc, castagnoli, line)
}

// record takes one line in record position. A damaged section keeps
// consuming lines up to its trailer. A bad record is named by its position
// in the section, which no scan's starting point changes; so is one that
// does not sort strictly after the record before it by (TLD, domain). A
// record whose NS column refers to a set shares that set's hosts with the
// line that defined it.
func (c *section) record(line []byte, text string, fields []string) {
	if c.bad != "" {
		return
	}
	c.add(line)
	if text == "" {
		c.bad = "blank line inside section"
		return
	}
	n := len(c.snap.Records)
	rec, err := parseRecordFields(fields, &c.sets)
	if err != nil {
		c.bad = fmt.Sprintf("record %d: %v", n+1, err)
		return
	}
	if n > 0 {
		prev := &c.snap.Records[n-1]
		if cmp.Or(strings.Compare(rec.TLD, prev.TLD), strings.Compare(rec.Domain, prev.Domain)) <= 0 {
			c.bad = fmt.Sprintf("record %d: out of order", n+1)
			return
		}
	}
	c.snap.Records = append(c.snap.Records, rec)
}

// check runs every integrity check of one section against its trailer
// line, returning "" when the section is intact or the reason it must be
// quarantined.
func (c *section) check(fields []string, full bool) string {
	if c.bad != "" {
		return c.bad
	}
	if !full || len(fields) != 4 {
		return "malformed trailer"
	}
	if fields[1] != c.at.Day {
		return fmt.Sprintf("trailer day %q does not match section day %q", fields[1], c.at.Day)
	}
	wantLen, err := strconv.Atoi(fields[2])
	if err != nil || wantLen < 0 {
		return fmt.Sprintf("malformed trailer length %q", fields[2])
	}
	wantCRC, err := strconv.ParseUint(fields[3], 16, 32)
	if err != nil {
		return fmt.Sprintf("malformed trailer checksum %q", fields[3])
	}
	if wantLen != c.n {
		return fmt.Sprintf("length mismatch: trailer declares %d bytes, section has %d", wantLen, c.n)
	}
	if c.crc != uint32(wantCRC) {
		return fmt.Sprintf("checksum mismatch: trailer %08x, section %08x", uint32(wantCRC), c.crc)
	}
	if c.declared >= 0 && c.declared != len(c.snap.Records) {
		return fmt.Sprintf("record count mismatch: header declares %d, found %d", c.declared, len(c.snap.Records))
	}
	return ""
}
