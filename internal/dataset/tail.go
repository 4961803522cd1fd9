package dataset

// Incremental archive tailing: the always-on observatory re-reads only
// the archive's growing tail, not the whole file, and must distinguish
// three tail states a batch reader never sees:
//
//   - a complete, verified section → consume it and advance the offset;
//   - damage that is *final* — a member whose decoder fails on its own
//     bytes or whose text is not one intact section, or a stray run a
//     newer member has superseded → quarantine and consume;
//   - a trailing member or stray run nothing has superseded yet →
//     possibly still being appended: leave it unconsumed and re-examine on
//     the next poll.
//
// One scanner reads the format for everyone — ReadArchive, TailArchive,
// the checkpoint's chunk reader and the observatory's ingest are its
// callers. Members only: a section starts at a gzip member header
// (memberHeader, archive.go), the member is inflated and its text read
// line by line as exactly one section, and any other bytes at a section
// boundary are a stray run up to the next member header. A damaged member
// is damage at its first byte (member has the cases). A file that starts
// with a text section header is refused whole (ErrTextArchive). The
// scanner yields one event at a time, holding one section in memory, each
// event carrying the exact resume offset after consuming it. Consumers
// that persist their cursor commit only at event boundaries, which makes
// the consumed state a pure function of the archive prefix before the
// cursor — the same purity that makes colstore ingest crash-safe: however
// a run of polls is interrupted and resumed, the sequence of events
// before any committed offset is identical to a single clean scan. A
// partial member is never consumed (the writer may be mid-write).
// ReadArchive, whose input is final, quarantines the third state too.
//
// A keyed section (keyed.go) reads its carries from the last self-contained
// section the scanner accepted, its key. A scan that starts past a keyed
// section's key — a resumed tail — reads the key back from the file first,
// so the events after a cursor stay those of a scan from the top.

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

// ErrTextArchive reports an archive that starts with a text section, the
// form written before each section became one gzip member: it is no longer
// read.
var ErrTextArchive = errors.New("dataset: text archive: text sections predate gzip-member sections and are no longer read")

// textHeader is how a text archive begins: a section header line.
var textHeader = []byte(tsvHeader + "\t")

// TailEvent is one consumed outcome: exactly one of Snap and Damage is
// non-nil.
type TailEvent struct {
	// Snap is a verified section's snapshot.
	Snap *Snapshot
	// Damage describes a quarantined member or stray run.
	Damage *Corruption
	// At locates what the event consumed — a member's or a stray run's
	// first byte: the day token as written, the line and the absolute
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
	// Offset is the absolute resume offset: the last event's End, or where
	// the scan started when there is no event. Every byte before it has
	// been consumed, every byte after it has not.
	Offset int64
}

// TailArchive scans path's bytes from offset `from` (the Offset or an
// event End of a previous scan, 0 for a fresh start) and returns whatever
// complete sections have appeared since. An archive smaller than `from`
// returns ErrTailTruncated.
func TailArchive(path string, from int64) (*TailResult, error) {
	res := &TailResult{Offset: from}
	err := ScanArchiveFile(path, from, func(ev TailEvent) error {
		res.Events = append(res.Events, ev)
		res.Offset = ev.End
		return nil
	})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// ScanArchiveFile is TailArchive one event at a time: fn sees each event as
// soon as its section closes, while only that section and the key it was
// read against are in memory. An error from fn stops the scan and is
// returned; every event delivered before it is a valid resume point.
func ScanArchiveFile(path string, from int64, fn func(TailEvent) error) error {
	if from < 0 {
		return fmt.Errorf("dataset: negative tail offset %d", from)
	}
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return err
	}
	if st.Size() < from {
		return fmt.Errorf("%w: offset %d, archive is %d bytes", ErrTailTruncated, from, st.Size())
	}
	if _, err := f.Seek(from, io.SeekStart); err != nil {
		return err
	}
	sc := newSectionScanner(f, from, f)
	for {
		ev, err := sc.next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		if err := fn(ev); err != nil {
			return err
		}
	}
}

// section is the in-flight parse state of one archive section. Its length
// and checksum are kept running, so verifying the trailer needs no second
// copy of the section's bytes.
type section struct {
	day      string // the header's day token as written
	declared int
	n        int    // bytes from the header through the latest record line
	crc      uint32 // CRC32C of those bytes
	snap     *Snapshot
	bad      string // first structural defect, "" while intact
	sets     nsSets // the NS sets the section's lines have defined so far
	keyed    bool   // the header names a key
	key      *Snapshot
	next     int // the key's record the next carry reads
}

// heldKey is the self-contained section a scanner holds for the keyed
// sections after it.
type heldKey struct {
	off  int64 // where its member starts
	crc  uint32
	snap *Snapshot
}

// memberHeader is the fixed header of every member MemberWriter writes:
// the gzip magic, deflate, no flags, no modification time, XFL 4 and OS
// 255 (unknown). XFL is advisory (RFC 1952) and no decoder reads it; here
// it is a fixed format byte, not a statement of the deflate level.
var memberHeader = []byte{0x1f, 0x8b, 8, 0, 0, 0, 0, 0, 4, 0xff}

// maxLineLen bounds a line of a member's text the scanner reads, newline
// included: no valid header, record or trailer line comes close, and a
// longer one damages its section instead of growing a buffer.
const maxLineLen = 64 << 10

// maxPresized bounds the records a section header's count reserves room
// for before any record is read.
const maxPresized = 1 << 12

// scanBufSize is the scanner's read buffer: how far it reads ahead of the
// member or stray run it is deciding.
const scanBufSize = 128 << 10

// input is the scanner's byte layer: a read buffer over the archive that
// knows the absolute offset of its bytes. It hands single bytes to the
// member decoder — it is a flate.Reader, so the decoder reads no byte past
// the member's end — and skips stray bytes to the next member header.
// While a member is decoded the input watches the bytes the decoder
// consumes for another member's header, and hands it no more once one is
// found.
type input struct {
	r    io.Reader
	buf  []byte // buf[i:] is unread; buf[:i] is read, and kept from watch on
	i    int
	base int64 // the offset of buf[0]
	err  error // what ended r: io.EOF at its end

	// watch, while a member is decoded, is the offset from which the bytes
	// consumed are yet to be searched for a member header, -1 otherwise;
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

// errMemberAhead is what the member decoder reads once the bytes it has
// consumed hold another member's header.
var errMemberAhead = errors.New("a member header inside the member")

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
// consumed hold no member header.
func (in *input) more() error {
	if in.searchAhead(false); in.ahead >= 0 {
		return errMemberAhead
	}
	if !in.fill() {
		return in.err
	}
	return nil
}

// searchAhead searches the consumed bytes from watch on for the first
// member header — if cut, also for its first bytes at their end — and
// keeps the last few for the next search.
func (in *input) searchAhead(cut bool) {
	if in.ahead >= 0 || in.watch > in.pos() {
		return
	}
	b := in.buf[in.watch-in.base : in.i]
	k := bytes.Index(b, memberHeader)
	for n := len(memberHeader) - 1; k < 0 && cut && n > 0; n-- {
		if bytes.HasSuffix(b, memberHeader[:n]) {
			k = len(b) - n
		}
	}
	if k >= 0 {
		in.ahead = in.watch + int64(k)
		return
	}
	in.watch = max(in.watch, in.pos()-int64(len(memberHeader)-1))
}

// startsWith reports whether the unread bytes begin with mark.
func (in *input) startsWith(mark []byte) bool {
	for len(in.buf)-in.i < len(mark) && in.fill() {
	}
	return bytes.HasPrefix(in.buf[in.i:], mark)
}

// toMember moves the read position to the next member header and reports
// whether there is one; if the input ends first, to its end.
func (in *input) toMember() bool {
	for {
		if k := bytes.Index(in.buf[in.i:], memberHeader); k >= 0 {
			in.i += k
			return true
		}
		// The last few bytes may begin a header the next read completes.
		in.i = max(in.i, len(in.buf)-(len(memberHeader)-1))
		if !in.fill() {
			in.i = len(in.buf)
			return false
		}
	}
}

// release stops watching and moves the read position to pos, at or after
// where watching began.
func (in *input) release(pos int64) {
	in.i, in.watch = int(pos-in.base), -1
}

// sectionScanner is the one reader of the archive format: a scanner of
// gzip members over any io.Reader, started at absolute offset base, each
// member's text read line by line as one section.
type sectionScanner struct {
	in      input
	lineNo  int
	fields  []string // the line in hand, split at its tabs
	decoded []byte   // the record line in hand with its domain decoded

	zr   gzip.Reader   // a member's decoder, reset for each
	text *bufio.Reader // a member's text, in lines of at most maxLineLen

	// sections counts the members seen, intact or not.
	sections int
	// stray is the open stray run, nil otherwise. Once next has returned
	// io.EOF it is what the bytes after the last event amount to, if they
	// amount to anything: the damage a batch reader quarantines and a
	// tailer leaves for its next poll.
	stray *Corruption

	start int64 // where the member in hand starts
	// key is the last self-contained section the scan accepted (ownKey), or
	// before it accepts one, the one last read back from back at backAt.
	key    *heldKey
	ownKey bool
	base   int64       // where the scan started
	back   io.ReaderAt // the archive's bytes before base; nil for none
	backAt int64
	// backErr is an I/O error reading back: it ends the scan.
	backErr error
	// keysOnly leaves keyed sections unread: the scan is for a key.
	keysOnly bool
}

// newSectionScanner starts a scan of r, which starts at offset base of its
// archive. back, if not nil, reads the archive's bytes before base.
func newSectionScanner(r io.Reader, base int64, back io.ReaderAt) *sectionScanner {
	return &sectionScanner{in: input{r: r, buf: make([]byte, 0, scanBufSize), base: base, watch: -1},
		base: base, back: back, backAt: -1}
}

// next returns the next event — a verified snapshot, or damage that is
// final — or io.EOF at end of input, after which sections and stray are
// settled.
func (s *sectionScanner) next() (TailEvent, error) {
	for {
		at := s.in.pos()
		if at == 0 && s.in.startsWith(textHeader) {
			return TailEvent{}, ErrTextArchive
		}
		if s.in.startsWith(memberHeader) {
			// A member supersedes an open stray run: that damage is final.
			if d := s.stray; d != nil {
				s.stray = nil
				return damaged(d, at), nil
			}
			if ev, ok, err := s.member(); ok || err != nil {
				return ev, err
			}
			continue
		}
		if s.in.i == len(s.in.buf) {
			break // startsWith has read all there is
		}
		if s.stray == nil {
			// Bytes where a member should start are one stray run, which
			// counts as one line, up to the next member header.
			s.lineNo++
			s.stray = &Corruption{Line: s.lineNo, Offset: at, Reason: "bytes outside any gzip member"}
		}
		if !s.in.toMember() {
			break
		}
	}
	if err := s.in.err; err != io.EOF {
		return TailEvent{}, err
	}
	return TailEvent{}, io.EOF
}

// member reads the member at the read position. Its text goes through
// memberText, and the member is one verified section only if its decoder
// reaches the member's verified end and the text is exactly one intact
// section. Anything else is damage at the member's first byte:
//
//   - if the bytes the decoder read after that byte hold a member header,
//     the decoder may have run past the member's end, so where it stopped
//     is no place to go on from: the member opens a stray run, and the input
//     goes back to that header, as searching from its second byte would;
//   - if the input ends inside the member, it opens a stray run of the rest
//     of the input, undecided;
//   - otherwise the damage is final, up to where the decoder stopped.
//
// Each case depends only on the bytes the decoder read, so a scan whose
// input ends inside a member decides nothing a longer input decides
// otherwise.
func (s *sectionScanner) member() (TailEvent, bool, error) {
	start := s.in.pos()
	s.start = start
	s.sections++
	d := Corruption{Line: s.lineNo + 1, Offset: start}
	s.in.watch, s.in.ahead = start+1, -1
	c, reason, err := s.memberText()
	if c != nil {
		d.Day = c.day
	}
	if s.in.err != nil && s.in.err != io.EOF {
		return TailEvent{}, false, s.in.err
	}
	if s.backErr != nil {
		return TailEvent{}, false, s.backErr
	}
	stop := s.in.pos()
	definite := err != nil && !errors.Is(err, io.ErrUnexpectedEOF)
	s.in.searchAhead(definite)
	switch {
	case s.in.ahead >= 0:
		// How much of the text was read depends on where the input's reads
		// ended; so that nothing does, the member counts as one line and
		// names no day.
		d.Day, d.Reason = "", "damaged gzip member runs into the next section"
		s.lineNo = d.Line
		s.in.release(s.in.ahead)
		s.stray = &d
		return TailEvent{}, false, nil
	case err == nil && reason == "":
		s.in.release(stop)
		if !c.keyed {
			s.key, s.ownKey = &heldKey{off: start, crc: c.crc, snap: c.snap}, true
		}
		return TailEvent{Snap: c.snap, At: d, End: stop}, true, nil
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

// memberText decodes the member at the read position and reads its text,
// which must be exactly one section: a header line, record lines and a
// trailer line. It returns the section its first line opened, if it did;
// the reason the text is not one intact section, "" when it is; and the
// decoder's error: nil once the member has ended and its checksum
// verified. Every line of the text is counted, read or not, and the
// decoder is drained to the member's end.
func (s *sectionScanner) memberText() (c *section, reason string, err error) {
	if err := s.zr.Reset(&s.in); err != nil {
		return nil, "", err
	}
	s.zr.Multistream(false)
	if s.text == nil {
		s.text = bufio.NewReaderSize(&s.zr, maxLineLen)
	} else {
		s.text.Reset(&s.zr)
	}
	closed := false // the trailer has been read
	n := 0          // bytes of the line in hand: past maxLineLen, counted but not kept
	for {
		line, err := s.text.ReadSlice('\n')
		if n += len(line); err == bufio.ErrBufferFull {
			continue
		}
		if err != nil && err != io.EOF {
			return c, reason, err
		}
		if n > 0 {
			s.lineNo++
			first, _, _ := bytes.Cut(line, []byte{'\t'})
			first = bytes.TrimSuffix(first, []byte{'\n'})
			switch {
			case reason != "":
				// The text is damaged already: its lines are counted, not read.
			case c == nil && (n > maxLineLen || string(first) != tsvHeader):
				reason = "text before the section header"
			case c == nil:
				c = s.open(line)
			case closed:
				reason = "text after the section trailer"
			case n > maxLineLen:
				c.overlong()
			case string(first) == trailerHeader:
				// The trailer is not part of the checksummed section body.
				closed, reason = true, c.check(s.split(line), err == nil)
			case c.bad == "":
				c.record(line, s)
			}
		}
		if err == io.EOF {
			break
		}
		n = 0
	}
	switch {
	case reason != "":
	case c == nil:
		reason = "member holds no section"
	case !closed:
		reason = cmp.Or(c.bad, "truncated section (no trailer)")
	}
	return c, reason, nil
}

// split splits a line, its newline dropped, at its tabs.
func (s *sectionScanner) split(line []byte) []string {
	s.fields = appendFields(s.fields[:0], string(bytes.TrimSuffix(line, []byte{'\n'})))
	return s.fields
}

// open starts a section at its header line.
func (s *sectionScanner) open(line []byte) *section {
	fields := s.split(line)
	c := &section{}
	if len(fields) >= 2 {
		c.day = fields[1]
	}
	c.add(line)
	day, declared, ref, err := parseSnapshotHeader(fields)
	switch {
	case err != nil:
		c.bad = fmt.Sprintf("bad header: %v", err)
		return c
	case ref != nil && s.keysOnly:
		c.keyed, c.bad = true, "keyed section left unread"
		return c
	case ref != nil:
		c.keyed = true
		c.key, c.bad = s.keyFor(ref)
	}
	c.declared = declared
	// The header's count is untrusted: it sizes the record slice only up to
	// maxPresized records.
	c.snap = &Snapshot{Day: day, Records: make([]Record, 0, min(declared, maxPresized))}
	return c
}

// keyFor returns the key a keyed section's header names, or why the scan
// does not hold it. The scan holds the last self-contained section it
// accepted. Until it has accepted one, a key before where it started is
// read back from the file: the last self-contained section a scan from the
// key to there accepts, which is the key only if nothing after the key
// displaced it — as in a scan from the top, which holds the same section
// there.
func (s *sectionScanner) keyFor(ref *keyRef) (*Snapshot, string) {
	off := s.start - ref.dist
	held := s.key != nil && s.key.off == off
	if !held && !s.ownKey && s.back != nil && 0 <= off && off < s.base && off != s.backAt {
		s.backAt = off
		s.key, s.backErr = s.readBack(off)
		held = s.key != nil
	}
	switch {
	case !held:
		return nil, fmt.Sprintf("key %s at byte %d not held", ref.day, off)
	case s.key.snap.Day != ref.day || s.key.crc != ref.crc:
		return nil, fmt.Sprintf("key %s at byte %d: the section there is %s with checksum %08x, the header names %08x",
			ref.day, off, s.key.snap.Day, s.key.crc, ref.crc)
	}
	return s.key.snap, ""
}

// readBack scans the archive from off to where the scan started for the key
// a keyed section names at off: the last self-contained section accepted
// there, if it starts at off.
func (s *sectionScanner) readBack(off int64) (*heldKey, error) {
	sc := newSectionScanner(io.NewSectionReader(s.back, off, s.base-off), off, nil)
	sc.keysOnly = true
	for {
		_, err := sc.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
	}
	if sc.key == nil || sc.key.off != off {
		return nil, nil
	}
	return sc.key, nil
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
// one past the count the header declares. A front-coded domain is rebuilt
// from the record before it, before s.split makes the line a string, so a
// record costs one string either way. A record whose NS column refers to a
// set shares that set's hosts with the line that defined it; a carried one
// shares its key record's strings.
func (c *section) record(line []byte, s *sectionScanner) {
	c.add(line)
	n := len(c.snap.Records)
	switch {
	case string(line) == "\n":
		c.bad = "blank line inside section"
		return
	case n == c.declared:
		c.bad = fmt.Sprintf("record count mismatch: header declares %d, found more", c.declared)
		return
	}
	rec, err := c.parse(line, s)
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

// parse reads one record line: a carry, or an explicit line whose domain is
// front-coded against the record before it.
func (c *section) parse(line []byte, s *sectionScanner) (Record, error) {
	if line[0] == carryMark {
		return c.carry(line[1:], s)
	}
	prev := ""
	if n := len(c.snap.Records); n > 0 {
		prev = c.snap.Records[n-1].Domain
	}
	k, rest, err := SplitFrontCoded(line, len(prev))
	if err != nil {
		return Record{}, err
	}
	if k > 0 {
		s.decoded = append(append(s.decoded[:0], prev[:k]...), rest...)
		line = s.decoded
	}
	return parseRecordFields(s.split(line), &c.sets)
}

// carry reads a carried line after its mark: a skip count, then nothing for
// the key's record as it is, or the fields of the key's domain today.
func (c *section) carry(line []byte, s *sectionScanner) (Record, error) {
	if c.key == nil {
		return Record{}, fmt.Errorf("a carry in a section without a key")
	}
	i, skip := 0, 0
	for ; i < len(line) && '0' <= line[i] && line[i] <= '9'; i++ {
		if i == 0 && line[i] == '0' {
			return Record{}, fmt.Errorf("bad carry skip %q", line[:i+1])
		}
		skip = min(skip*10+int(line[i]-'0'), len(c.key.Records))
	}
	if c.next += skip; c.next >= len(c.key.Records) {
		return Record{}, fmt.Errorf("carry runs past key %s", c.key.Day)
	}
	kr := &c.key.Records[c.next]
	c.next++
	switch rest := line[i:]; {
	case len(rest) == 0 || rest[0] == '\n':
		return *kr, nil
	case rest[0] == '\t':
		s.decoded = append(append(s.decoded[:0], kr.Domain...), rest...)
		return parseRecordFields(s.split(s.decoded), &c.sets)
	}
	return Record{}, fmt.Errorf("bad carry %q", line)
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
	if fields[1] != c.day {
		return fmt.Sprintf("trailer day %q does not match section day %q", fields[1], c.day)
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
	if c.declared != len(c.snap.Records) {
		return fmt.Sprintf("record count mismatch: header declares %d, found %d", c.declared, len(c.snap.Records))
	}
	return ""
}
