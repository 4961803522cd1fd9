package dataset

// Incremental archive tailing: the always-on observatory re-reads only
// the archive's growing tail, not the whole file, and must distinguish
// three tail states a batch reader never sees:
//
//   - a complete, verified section → consume it and advance the offset;
//   - damage that is *final* — a text section whose trailer fails
//     verification, or a torn section or stray run superseded by a newer
//     section → quarantine and consume;
//   - a trailing section, member or stray run nothing has superseded yet
//     → possibly still being appended: leave it unconsumed and re-examine
//     on the next poll.
//
// One scanner reads the format for everyone — ReadArchive, TailArchive,
// the checkpoint's chunk reader and the observatory's ingest are its
// callers. Under its lines sits a byte layer (input): at a section
// boundary a gzip member (archive.go) is inflated and its text read
// through the same line parser, and anywhere a member header ends a text
// line and supersedes what is open, as a header line does. A damaged
// member is damage at its first byte (member has the cases). The scanner
// yields one event at a time, holding one section in memory, each event
// carrying the exact resume offset after consuming it. Consumers that persist their cursor commit only at event
// boundaries (or at Offset, past any trailing blank lines), which makes
// the consumed state a pure function of the archive prefix before the
// cursor — the same purity that makes colstore ingest crash-safe: however
// a run of polls is interrupted and resumed, the sequence of events
// before any committed offset is identical to a single clean scan. A
// partial final line or member is never consumed (the writer may be
// mid-write), and blank lines between sections are consumed silently.
// ReadArchive, whose input is final, quarantines the third state too.

import (
	"bufio"
	"bytes"
	"cmp"
	"compress/gzip"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"slices"
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
	// At locates what the event consumed — a text section's header, a
	// member's first byte, or a stray run's first line: the day token as
	// written, the line and the absolute offset. For damage it is *Damage.
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

// memberHeader is the fixed header of every member writeSection writes:
// the gzip magic, deflate, no flags, no modification time, XFL 4
// (gzip.BestSpeed) and OS 255 (unknown).
var memberHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 0xff}

// maxLineLen bounds a line the scanner reads, newline included, in a text
// section or a member's text alike: no valid header, record or trailer line
// comes close, and a longer one damages its section instead of growing a
// buffer.
const maxLineLen = 64 << 10

// maxPresized bounds the records a section header's count reserves room
// for before any record is read.
const maxPresized = 1 << 12

// scanBufSize is the scanner's read buffer: how far it reads ahead of the
// line or member it is deciding. It holds a line of maxLineLen and the
// member header after it.
const scanBufSize = 2 * maxLineLen

// lineEnd is what ends a line the input hands over.
type lineEnd int

const (
	lineOpen    lineEnd = iota // not yet known: the line goes on past the bytes read
	endOfInput                 // the input ends: the line lacks its newline, or is empty
	newline                    // the line's own newline, which it includes
	memberStart                // a member header, which it excludes
)

// input is the scanner's byte layer: a read buffer over the archive that
// knows the absolute offset of its bytes. It hands out text lines, which end
// at a newline or just before a member header, and single bytes to the
// member decoder — it is a flate.Reader, so the decoder reads no byte past
// the member's end. While a member is decoded the input watches the bytes
// the decoder consumes for a section start, and hands it no more once one
// is found.
type input struct {
	r    io.Reader
	buf  []byte // buf[i:] is unread; buf[:i] is read, and kept from watch on
	i    int
	base int64 // the offset of buf[0]
	err  error // what ended r: io.EOF at its end

	// watch, while a member is decoded, is the offset from which the bytes
	// consumed are yet to be searched for a section start, -1 otherwise;
	// ahead is where the first one found starts, -1 while none is.
	watch, ahead int64
}

func (in *input) pos() int64 { return in.base + int64(in.i) }

// fill reads at most scanBufSize more bytes and reports whether any
// arrived. The bytes read so far give up their room first, but for those
// from watch on.
func (in *input) fill() bool {
	for in.err == nil {
		if k := in.i; k > 0 {
			if in.watch >= 0 {
				k = min(k, int(in.watch-in.base))
			}
			n := copy(in.buf, in.buf[k:])
			in.buf, in.base, in.i = in.buf[:n], in.base+int64(k), in.i-k
		}
		if len(in.buf) == cap(in.buf) {
			in.buf = slices.Grow(in.buf, scanBufSize)
		}
		n, err := in.r.Read(in.buf[len(in.buf):min(cap(in.buf), len(in.buf)+scanBufSize)])
		in.buf, in.err = in.buf[:len(in.buf)+n], err
		if n > 0 {
			return true
		}
	}
	return false
}

// errSectionAhead is what the member decoder reads once the bytes it has
// consumed hold a section start.
var errSectionAhead = errors.New("a section starts inside the member")

// ReadByte and Read hand the member decoder its bytes.
func (in *input) ReadByte() (byte, error) {
	if in.i == len(in.buf) {
		if err := in.more(); err != nil {
			return 0, err
		}
	}
	in.i++
	return in.buf[in.i-1], nil
}

func (in *input) Read(p []byte) (int, error) {
	if in.i == len(in.buf) {
		if err := in.more(); err != nil {
			return 0, err
		}
	}
	n := copy(p, in.buf[in.i:])
	in.i += n
	return n, nil
}

// more refills the input for the member decoder, once the bytes it has
// consumed hold no section start.
func (in *input) more() error {
	if in.searchAhead(false); in.ahead >= 0 {
		return errSectionAhead
	}
	if !in.fill() {
		return in.err
	}
	return nil
}

// searchAhead searches the consumed bytes from watch on for the first
// section start — if cut, also for its first bytes at their end — and keeps
// the last few for the next search.
func (in *input) searchAhead(cut bool) {
	if in.ahead >= 0 || in.watch > in.pos() {
		return
	}
	if k := sectionAhead(in.buf[in.watch-in.base:in.i], cut); k >= 0 {
		in.ahead = in.watch + int64(k)
		return
	}
	in.watch = max(in.watch, in.pos()-int64(len(memberHeader)-1))
}

// atMember reports whether a member header starts at the read position.
func (in *input) atMember() bool {
	for len(in.buf)-in.i < len(memberHeader) && in.fill() {
	}
	return bytes.HasPrefix(in.buf[in.i:], memberHeader)
}

// readLine hands over the next line, valid until the next read, and its
// length n. A line longer than maxLineLen is counted, not kept: then n
// exceeds len(line), and the line is not to be read.
func (in *input) readLine() (line []byte, n int, end lineEnd) {
	scanned := 0 // unread bytes known to belong to the line
	for {
		k, e := lineBreak(in.buf[in.i+scanned:], in.err != nil)
		if scanned += k; e != lineOpen {
			line, in.i = in.buf[in.i:in.i+scanned], in.i+scanned
			return line, n + scanned, e
		}
		if scanned > maxLineLen {
			n, in.i, scanned = n+scanned, in.i+scanned, 0
		}
		in.fill()
	}
}

// lineBreak finds the end of a line that goes on with b: after a newline,
// before a member header, or at the end of the input (final b). It returns
// the line's length in b and what ends it, or lineOpen and the length of b
// known to belong to the line. The first bytes of a header at the end of
// the input belong to the line: they may yet turn out to be anything.
func lineBreak(b []byte, final bool) (int, lineEnd) {
	nl := bytes.IndexByte(b, '\n')
	seg := b
	if nl >= 0 {
		seg = b[:nl]
	}
	for off := 0; ; off++ {
		k := bytes.IndexByte(seg[off:], memberHeader[0])
		if k < 0 {
			break
		}
		off += k
		rest := b[off:]
		switch {
		case bytes.HasPrefix(rest, memberHeader):
			return off, memberStart
		case !final && len(rest) < len(memberHeader) && bytes.HasPrefix(memberHeader, rest):
			return off, lineOpen
		}
	}
	switch {
	case nl >= 0:
		return nl + 1, newline
	case final:
		return len(b), endOfInput
	}
	return len(b), lineOpen
}

// release stops watching and moves the read position to pos, at or after
// where watching began.
func (in *input) release(pos int64) {
	in.i, in.watch = int(pos-in.base), -1
}

// sectionScanner is the one reader of the trailered format: a line-by-line
// state machine over any io.Reader, started at absolute offset base, over
// text sections and over the text of members alike.
type sectionScanner struct {
	in     input
	lineNo int
	cur    *section    // open text section, nil otherwise
	stray  *Corruption // open stray run, nil otherwise
	fields []string    // the line in hand, split at its tabs

	zr   gzip.Reader   // a member's decoder, reset for each
	text *bufio.Reader // a member's text, in lines of at most maxLineLen

	// offset is the resume point: every byte before it has been consumed,
	// by an event or as a blank line between sections.
	offset int64
	// sections counts the section headers seen, intact or not.
	sections int
	// undecided, complete once next has returned io.EOF, is what the bytes
	// from offset on amount to if the input ends here — an open section,
	// an open stray run, a partial line, a partial member — as the damage a
	// batch reader quarantines and a tailer leaves for its next poll.
	undecided []Corruption
}

func newSectionScanner(r io.Reader, base int64) *sectionScanner {
	return &sectionScanner{in: input{r: r, buf: make([]byte, 0, scanBufSize), base: base, watch: -1}, offset: base}
}

// next returns the next event — a verified snapshot, or damage that is
// final — or io.EOF at end of input, after which offset, sections and
// undecided are settled.
func (s *sectionScanner) next() (TailEvent, error) {
	for {
		at := s.in.pos()
		// A member supersedes whatever is open, as a header line does.
		if s.in.atMember() {
			if ev, ok := s.supersede(at); ok {
				s.offset = ev.End
				return ev, nil
			}
			ev, ok, err := s.member()
			if err != nil {
				return TailEvent{}, err
			}
			if ok {
				s.offset = ev.End
				return ev, nil
			}
			continue
		}
		line, n, end := s.in.readLine()
		if n == 0 {
			break
		}
		ev, ok := s.step(line, at, n, end)
		if end == endOfInput {
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
	if err := s.in.err; err != io.EOF {
		return TailEvent{}, err
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

// supersede makes final whatever is open when a new section starts at at:
// a section that has not seen its trailer is torn.
func (s *sectionScanner) supersede(at int64) (ev TailEvent, ok bool) {
	switch {
	case s.stray != nil:
		ev, ok = damaged(s.stray, at), true
	case s.cur != nil:
		ev, ok = damaged(s.cur.damage("missing trailer (torn write)"), at), true
	}
	s.cur, s.stray = nil, nil
	return ev, ok
}

// member reads the member at the read position. Its text goes through step
// line by line, as a text section's lines do, and the member is one verified
// section only if its decoder reaches the member's verified end and step
// closes exactly one section, with the text's last line, leaving nothing
// open. Anything else is damage at the member's first byte:
//
//   - if the bytes the decoder read after that byte hold a section start (a
//     member header, or a header line after a newline), the decoder may have
//     run past the member's end, so where it stopped is no place to go on
//     from: the member opens a stray run, and the input goes back to the
//     first section start, as searching from its second byte would;
//   - if the input ends inside the member, it opens a stray run of the rest
//     of the input, undecided;
//   - otherwise the damage is final, up to where the decoder stopped.
//
// Each case depends only on the bytes the decoder read, so a scan whose
// input ends inside a member decides nothing a longer input decides
// otherwise.
func (s *sectionScanner) member() (TailEvent, bool, error) {
	start, offset, sections := s.in.pos(), s.offset, s.sections
	d := Corruption{Line: s.lineNo + 1, Offset: start}
	s.in.watch, s.in.ahead = start+1, -1
	first, events, last, err := s.memberLines(start)
	// A blank line in the member's text does not move the resume point, and
	// a member is one section whatever its text holds.
	s.offset, s.sections = offset, sections+1
	if s.in.err != nil && s.in.err != io.EOF {
		return TailEvent{}, false, s.in.err
	}
	stop := s.in.pos()
	// What the text amounts to, should the gzip framing hold.
	reason, open := "member holds no section", s.cur != nil || s.stray != nil
	d.Day = first.At.Day
	switch {
	case events > 0 && first.Damage != nil:
		reason = first.Damage.Reason
	case events > 0:
		reason = "text after the section trailer"
	case s.cur != nil:
		reason, d.Day = cmp.Or(s.cur.bad, "truncated section (no trailer)"), s.cur.at.Day
	case s.stray != nil:
		reason = s.stray.Reason
	}
	s.cur, s.stray = nil, nil
	definite := err != nil && !errors.Is(err, io.ErrUnexpectedEOF)
	s.in.searchAhead(definite)
	switch {
	case s.in.ahead >= 0:
		// A header line starts after its newline.
		next := s.in.ahead
		if s.in.buf[next-s.in.base] == '\n' {
			next++
		}
		// How much of the text was read depends on where the input's reads
		// ended; so that nothing does, the member counts as one line and
		// names no day.
		d.Day, d.Reason = "", "damaged gzip member runs into the next section"
		s.lineNo = d.Line
		s.in.release(next)
		s.stray = &d
		return TailEvent{}, false, nil
	case err == nil && events == 1 && last && first.Snap != nil && !open:
		s.in.release(stop)
		first.End = stop
		return first, true, nil
	case err != nil && !definite:
		d.Reason = "truncated gzip member"
		s.in.release(stop)
		s.stray = &d
		return TailEvent{}, false, nil
	case definite:
		d.Reason = fmt.Sprintf("bad gzip member: %v", err)
	default:
		d.Reason = reason
	}
	s.in.release(stop)
	return damaged(&d, stop), true, nil
}

// memberLines decodes the member at the read position and puts its text
// through step line by line, each line at the member's first byte start. It
// returns the first event step closed, how many it closed, whether the
// text's last line closed one, and the decoder's error: nil once the member
// has ended and its checksum verified.
func (s *sectionScanner) memberLines(start int64) (first TailEvent, events int, last bool, err error) {
	if err := s.zr.Reset(&s.in); err != nil {
		return first, 0, false, err
	}
	s.zr.Multistream(false)
	if s.text == nil {
		s.text = bufio.NewReaderSize(&s.zr, maxLineLen)
	} else {
		s.text.Reset(&s.zr)
	}
	n := 0 // bytes of the line in hand: past maxLineLen, counted but not kept
	for {
		line, err := s.text.ReadSlice('\n')
		if n += len(line); err == bufio.ErrBufferFull {
			continue
		}
		if err != nil && err != io.EOF {
			return first, events, last, err
		}
		if n > 0 {
			end := newline
			if err == io.EOF {
				end = endOfInput
			}
			ev, ok := s.step(line, start, n, end)
			if ok && events == 0 {
				first = ev
			}
			if last = ok; ok {
				events++
			}
		}
		if err == io.EOF {
			return first, events, last, nil
		}
		n = 0
	}
}

// sectionStarts are what begins a section where a line begins: a member
// header, or a header line after a newline.
var sectionStarts = [][]byte{memberHeader, []byte("\n" + tsvHeader)}

// sectionAhead returns where the first section start in b begins, or -1.
// If b is cut — the bytes after it are not yet read — the first bytes of a
// section start at its end count too.
func sectionAhead(b []byte, cut bool) int {
	first := -1
	for _, mark := range sectionStarts {
		k := bytes.Index(b, mark)
		for n := len(mark) - 1; k < 0 && cut && n > 0; n-- {
			if bytes.HasSuffix(b, mark[:n]) {
				k = len(b) - n
			}
		}
		if k >= 0 && (first < 0 || k < first) {
			first = k
		}
	}
	return first
}

// step advances the state machine by one text line at offset at, n bytes
// long and ended by end, and reports the event the line closes, if any. A
// line without its newline goes through the same cases: none of them can
// verify a section with it.
func (s *sectionScanner) step(line []byte, at int64, n int, end lineEnd) (ev TailEvent, ok bool) {
	s.lineNo++
	here := Corruption{Line: s.lineNo, Offset: at}
	if n > maxLineLen {
		if s.cur != nil {
			s.cur.overlong()
		} else {
			s.strayRun(here, fmt.Sprintf("line longer than %d bytes", maxLineLen))
		}
		return ev, false
	}
	// A line outside any section is not split: a stray run costs no
	// allocation a line.
	body := bytes.TrimSuffix(line, []byte{'\n'})
	first, _, _ := bytes.Cut(body, []byte{'\t'})
	switch {
	case string(first) == tsvHeader:
		// A new header supersedes whatever was open: that damage is final.
		ev, ok = s.supersede(at)
		s.cur = s.open(here, line, s.split(line))

	case s.cur == nil:
		switch {
		case string(first) == trailerHeader:
			s.strayRun(here, "trailer without a section")
		case len(body) > 0:
			s.strayRun(here, "records outside any section")
		case s.stray == nil:
			s.offset = at + int64(n) // blank lines between sections are consumed silently
		}

	case string(first) == trailerHeader:
		// The trailer is not part of the checksummed section body.
		if reason := s.cur.check(s.split(line), end == newline); reason != "" {
			ev = damaged(s.cur.damage(reason), at+int64(n))
		} else {
			ev = TailEvent{Snap: s.cur.snap, At: s.cur.at, End: at + int64(n)}
		}
		ok = true
		s.cur = nil

	case s.cur.bad == "":
		s.cur.record(line, s.split(line))
	}
	return ev, ok
}

// split splits a line, its newline dropped, at its tabs.
func (s *sectionScanner) split(line []byte) []string {
	s.fields = appendFields(s.fields[:0], string(bytes.TrimSuffix(line, []byte{'\n'})))
	return s.fields
}

// open starts a section at its header line.
func (s *sectionScanner) open(at Corruption, line []byte, fields []string) *section {
	s.sections++
	c := &section{at: at, declared: -1}
	if len(fields) >= 2 {
		c.at.Day = fields[1]
	}
	c.add(line)
	if day, declared, err := parseSnapshotHeader(fields); err != nil {
		c.bad = fmt.Sprintf("bad header: %v", err)
	} else {
		c.declared = declared
		// The header's count is untrusted: it sizes the record slice only
		// up to maxPresized records.
		c.snap = &Snapshot{Day: day, Records: make([]Record, 0, min(max(declared, 0), maxPresized))}
	}
	return c
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
// pending until a section supersedes it.
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

// overlong damages the section with a line longer than maxLineLen.
func (c *section) overlong() {
	if c.bad == "" {
		c.bad = fmt.Sprintf("record %d: longer than %d bytes", len(c.snap.Records)+1, maxLineLen)
	}
}

// record takes one line in record position of an intact section; a damaged
// one consumes its lines unread up to its trailer. A bad record is named by its position
// in the section, which no scan's starting point changes; so is one that
// does not sort strictly after the record before it by (TLD, domain), and
// one past the count the header declares. A record whose NS column refers
// to a set shares that set's hosts with the line that defined it.
func (c *section) record(line []byte, fields []string) {
	c.add(line)
	n := len(c.snap.Records)
	switch {
	case len(fields) == 1 && fields[0] == "":
		c.bad = "blank line inside section"
		return
	case n == c.declared:
		c.bad = fmt.Sprintf("record count mismatch: header declares %d, found more", c.declared)
		return
	}
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
