package dataset

import (
	"bufio"
	"bytes"
	"cmp"
	"container/heap"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strings"

	"securepki.org/registrarsec/internal/simtime"
)

// The streaming snapshot writer: a full-`.com` sweep produces one day
// section of ~150M records, far more than fits in RAM as a Snapshot. The
// SpillWriter accepts records in arrival order under a byte budget,
// spilling sorted run files to disk whenever the buffer fills, and
// finalizes the day as one trailered archive section via a k-way merge of
// the runs — producing bytes identical to the in-RAM
// Snapshot.Canonicalize + WriteArchiveSection path, so every existing
// archive consumer (ReadArchive, salvage, TailArchive, the checkpoint
// store) reads streamed sections without knowing they were streamed.

// DefaultMemBudget is the SpillWriter's buffered-record byte budget when
// SpillOptions leaves it zero: small enough to bound a sweep shard, large
// enough that modest days never spill at all.
const DefaultMemBudget = 256 << 20

// SpillOptions configures the bounded-memory day assembly.
type SpillOptions struct {
	// Dir receives the sorted run files (default: the system temp dir).
	// Runs are ephemeral — they are deleted by Close — but at full scale
	// they hold most of a day, so point this at a disk with room.
	Dir string
	// MemBudget is the approximate byte size of buffered records before a
	// sorted run is spilled (default DefaultMemBudget).
	MemBudget int64
}

// spillRun is one sorted run file on disk.
type spillRun struct {
	path    string
	records int
}

// SpillWriter assembles one day's archive section with bounded memory.
// Records arrive in any order (scan sweeps append in worker-completion
// order); the writer keeps at most MemBudget bytes of them in RAM and
// spills the excess as sorted TSV run files. WriteSectionTo merges buffer
// and runs into canonical (TLD, domain) order on the fly.
//
// Each (TLD, domain) key appears once per day — true for any sweep, whose
// targets are distinct domains: WriteSectionTo refuses a day that names a
// domain twice, as WriteArchiveSection does.
type SpillWriter struct {
	day      simtime.Day
	opt      SpillOptions
	buf      []Record
	bufBytes int64
	runs     []spillRun
	total    int
	err      error // first spill failure, made sticky
}

// NewSpillWriter creates a writer for one day's records.
func NewSpillWriter(day simtime.Day, opt SpillOptions) *SpillWriter {
	if opt.Dir == "" {
		opt.Dir = os.TempDir()
	}
	if opt.MemBudget <= 0 {
		opt.MemBudget = DefaultMemBudget
	}
	return &SpillWriter{day: day, opt: opt}
}

// Day returns the section day the writer was created for.
func (w *SpillWriter) Day() simtime.Day { return w.day }

// Len returns the total number of records appended so far.
func (w *SpillWriter) Len() int { return w.total }

// Runs reports how many sorted runs have been spilled to disk.
func (w *SpillWriter) Runs() int { return len(w.runs) }

// recordBytes approximates a record's resident size for the byte budget.
func recordBytes(r *Record) int64 {
	n := len(r.Domain) + len(r.TLD) + len(r.Operator) + len(r.FailReason)
	for _, h := range r.NSHosts {
		n += len(h) + 16
	}
	return int64(n) + 96 // struct header + slice/string overheads
}

// Append adds records, spilling a sorted run when the buffer exceeds the
// byte budget. Appended slices are copied; callers may reuse them.
func (w *SpillWriter) Append(recs ...Record) error {
	if w.err != nil {
		return w.err
	}
	for i := range recs {
		w.buf = append(w.buf, recs[i])
		w.bufBytes += recordBytes(&recs[i])
		w.total++
		if w.bufBytes >= w.opt.MemBudget {
			if err := w.spill(); err != nil {
				w.err = err
				return err
			}
		}
	}
	return nil
}

// spill sorts the buffer and writes it as one run file.
func (w *SpillWriter) spill() error {
	if len(w.buf) == 0 {
		return nil
	}
	sortRecords(w.buf)
	f, err := os.CreateTemp(w.opt.Dir, fmt.Sprintf("regsec-spill-%s-*.run", w.day))
	if err != nil {
		return fmt.Errorf("dataset: spill: %w", err)
	}
	bw := bufio.NewWriterSize(f, 256<<10)
	write := func(line []byte) error {
		_, err := bw.Write(line)
		return err
	}
	if err := cmp.Or(eachLine(w.buf, write), bw.Flush()); err != nil {
		f.Close()
		os.Remove(f.Name())
		return fmt.Errorf("dataset: spill %s: %w", f.Name(), err)
	}
	if err := f.Close(); err != nil {
		os.Remove(f.Name())
		return fmt.Errorf("dataset: spill %s: %w", f.Name(), err)
	}
	w.runs = append(w.runs, spillRun{path: f.Name(), records: len(w.buf)})
	w.buf = w.buf[:0]
	w.bufBytes = 0
	return nil
}

// Close removes every spilled run file. The writer keeps its buffered
// records, so Close after a successful WriteSectionTo is the normal
// cleanup; merging again after Close is an error.
func (w *SpillWriter) Close() error {
	var first error
	for _, r := range w.runs {
		if err := os.Remove(r.path); err != nil && first == nil {
			first = err
		}
	}
	w.runs = nil
	if w.err == nil && first != nil {
		w.err = first
	}
	return first
}

// mergeItem is one source's current line in the k-way merge. Lines keep
// their trailing newline so the merge can copy bytes verbatim; tld and
// domain are the line's sort key, slices of it.
type mergeItem struct {
	tld, domain []byte
	line        []byte
	src         int
}

// mergeHeap orders items by (TLD, domain), ties broken by source index so
// the merge is deterministic even with duplicate keys.
type mergeHeap []mergeItem

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	a, b := &h[i], &h[j]
	if c := compareKeys(a.tld, a.domain, b.tld, b.domain); c != 0 {
		return c < 0
	}
	return a.src < b.src
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.(mergeItem)) }
func (h *mergeHeap) Pop() any     { old := *h; n := len(old); it := old[n-1]; *h = old[:n-1]; return it }

// compareKeys orders two (TLD, domain) keys as sortRecords orders records.
func compareKeys(tldA, domainA, tldB, domainB []byte) int {
	return cmp.Or(bytes.Compare(tldA, tldB), bytes.Compare(domainA, domainB))
}

// lineKey returns the (domain, TLD) sort key of a rendered record line, as
// slices of it: its first field, and its fifth where present and not empty,
// the domain's last label otherwise — the TLD the reader reads back.
func lineKey(line []byte) (domain, tld []byte, err error) {
	if n := len(line); n > 0 && line[n-1] == '\n' {
		line = line[:n-1]
	}
	t := bytes.IndexByte(line, '\t')
	if t < 0 {
		return nil, nil, fmt.Errorf("dataset: malformed record line %q", line)
	}
	domain, rest := line[:t], line[t+1:]
	for range 3 { // past the NS, flags and status fields
		i := bytes.IndexByte(rest, '\t')
		if i < 0 {
			rest = nil
			break
		}
		rest = rest[i+1:]
	}
	if i := bytes.IndexByte(rest, '\t'); i >= 0 {
		rest = rest[:i]
	}
	if len(rest) == 0 {
		rest = domain[bytes.LastIndexByte(domain, '.')+1:]
	}
	return domain, rest, nil
}

// mergeSource yields one source's lines in sorted order.
type mergeSource interface {
	next() (line []byte, ok bool, err error)
	close() error
}

// runSource streams a spilled run file.
type runSource struct {
	f  *os.File
	br *bufio.Reader
}

func openRun(path string) (*runSource, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	return &runSource{f: f, br: bufio.NewReaderSize(f, 256<<10)}, nil
}

func (r *runSource) next() ([]byte, bool, error) {
	line, err := r.br.ReadBytes('\n')
	if len(line) == 0 && err == io.EOF {
		return nil, false, nil
	}
	if err != nil && err != io.EOF {
		return nil, false, err
	}
	if !bytes.HasSuffix(line, []byte("\n")) {
		return nil, false, fmt.Errorf("dataset: truncated run file %s", r.f.Name())
	}
	return line, true, nil
}

func (r *runSource) close() error { return r.f.Close() }

// bufSource renders the in-memory buffer's records lazily.
type bufSource struct {
	recs []Record
	i    int
	line []byte
}

func (b *bufSource) next() ([]byte, bool, error) {
	if b.i >= len(b.recs) {
		return nil, false, nil
	}
	b.line = appendRecord(b.line[:0], &b.recs[b.i])
	b.i++
	return b.line, true, nil
}

func (b *bufSource) close() error { return nil }

// merge runs the k-way merge over every run file plus the sorted buffer,
// calling emit once per record line in canonical order.
func (w *SpillWriter) merge(emit func(line []byte) error) error {
	if w.err != nil {
		return w.err
	}
	sortRecords(w.buf)
	sources := make([]mergeSource, 0, len(w.runs)+1)
	defer func() {
		for _, s := range sources {
			s.close()
		}
	}()
	for _, r := range w.runs {
		rs, err := openRun(r.path)
		if err != nil {
			return fmt.Errorf("dataset: merge: %w", err)
		}
		sources = append(sources, rs)
	}
	sources = append(sources, &bufSource{recs: w.buf})

	h := make(mergeHeap, 0, len(sources))
	advance := func(src int) error {
		line, ok, err := sources[src].next()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		// The buffer source reuses its line buffer; copy so the heap's
		// view survives the next render. Run lines are fresh allocations.
		line = append([]byte(nil), line...)
		domain, tld, err := lineKey(line)
		if err != nil {
			return err
		}
		heap.Push(&h, mergeItem{tld: tld, domain: domain, line: line, src: src})
		return nil
	}
	for i := range sources {
		if err := advance(i); err != nil {
			return err
		}
	}
	for h.Len() > 0 {
		it := heap.Pop(&h).(mergeItem)
		if err := emit(it.line); err != nil {
			return err
		}
		if err := advance(it.src); err != nil {
			return err
		}
	}
	return nil
}

// crcWriter counts and checksums everything written through it.
type crcWriter struct {
	w   io.Writer
	n   int
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += n
	c.crc = crc32.Update(c.crc, castagnoli, p[:n])
	return n, err
}

// writeSection frames one trailered archive section, the only place the
// format is written: a gzip member (MemberWriter) whose text is the
// section. body hands each record line it renders, newline included,
// to emit, which refuses a line that does not sort strictly after the one
// before it or whose domain starts with a front-coding marker or carryMark,
// and writes the rest: as a carry when key is not nil and holds the line's
// domain (keyed.go), otherwise with the domain front-coded against the line
// before it; the NS column, but a bare carry's, goes through the section's
// own NS-set dictionary. The header and those lines go through the
// counting, checksumming writer, and the trailer records what it saw. It
// returns the trailer's checksum.
func writeSection(out io.Writer, day simtime.Day, count int, key *sectionKey, body func(emit func(line []byte) error) error) (uint32, error) {
	bw := bufio.NewWriterSize(out, archiveBufSize)
	zw := NewMemberWriter(bw)
	cw := &crcWriter{w: zw}
	var cur *keyCursor
	header := fmt.Sprintf("%s\t%s\t%d\n", tsvHeader, day, count)
	if key != nil {
		header = fmt.Sprintf("%s\t%s\t%d\tkey=%s:%d:%08x\n", tsvHeader, day, count, key.day, key.dist, key.crc)
		cur = &keyCursor{rest: key.text}
		if err := cur.advance(); err != nil {
			return 0, err
		}
	}
	if _, err := io.WriteString(cw, header); err != nil {
		return 0, err
	}
	dict := nsDict{ordinal: map[string]int{}}
	var prevTLD, prevDomain []byte // the previous line's key, copied
	var coded []byte               // the line as written, reused
	first := true
	emit := func(line []byte) error {
		domain, tld, err := lineKey(line)
		if err != nil {
			return err
		}
		if len(domain) > 0 && (IsFrontMarker(domain[0]) || domain[0] == carryMark) {
			return fmt.Errorf("dataset: section %s: record %s starts with %q, which marks a front-coded name or a carry", day, domain, domain[0])
		}
		if !first && compareKeys(tld, domain, prevTLD, prevDomain) <= 0 {
			return fmt.Errorf("dataset: section %s: record %s does not sort after %s (records go in ascending (TLD, domain) order, each domain once)", day, domain, prevDomain)
		}
		first = false
		carried := false
		if cur != nil {
			if coded, carried, err = cur.carry(coded[:0], line, tld, domain, &dict); err != nil {
				return err
			}
		}
		if !carried {
			coded = dict.append(AppendFrontCoded(coded[:0], prevDomain, domain), line[len(domain):])
		}
		prevTLD, prevDomain = append(prevTLD[:0], tld...), append(prevDomain[:0], domain...)
		_, err = cw.Write(coded)
		return err
	}
	if err := body(emit); err != nil {
		return 0, err
	}
	if _, err := fmt.Fprintf(zw, "%s\t%s\t%d\t%08x\n", trailerHeader, day, cw.n, cw.crc); err != nil {
		return 0, err
	}
	if err := zw.Close(); err != nil {
		return 0, err
	}
	return cw.crc, bw.Flush()
}

// WriteSectionTo streams the day's records as one trailered archive
// section, byte-identical to writing the same records through
// Snapshot.Canonicalize + WriteArchiveSection. It may be called more than
// once (run files are re-read each time) until Close removes the runs.
func (w *SpillWriter) WriteSectionTo(out io.Writer) error {
	_, err := writeSection(out, w.day, w.total, nil, w.body)
	return err
}

// body is the section body of the day's records: the merge's lines, which
// must be as many as were appended.
func (w *SpillWriter) body(emit func(line []byte) error) error {
	n := 0
	err := w.merge(func(line []byte) error {
		n++
		return emit(line)
	})
	if err == nil && n != w.total {
		err = fmt.Errorf("dataset: spill merge for %s produced %d records, appended %d (lost or duplicated run?)", w.day, n, w.total)
	}
	return err
}

// EachSorted calls fn for every record in canonical order, parsing run
// lines back into Records — the record-level view used by CLI printers
// that must not hold a day in RAM.
func (w *SpillWriter) EachSorted(fn func(r *Record) error) error {
	return w.merge(func(line []byte) error {
		text := strings.TrimSuffix(string(line), "\n")
		rec, err := parseRecordFields(strings.Split(text, "\t"), nil)
		if err != nil {
			return err
		}
		return fn(&rec)
	})
}

// archiveBufSize is the write buffer of a streamed archive. writeSection
// asks for the same size, so handed an ArchiveWriter's buffer it writes
// through it (bufio.NewWriterSize returns a large-enough *bufio.Writer as
// it is) instead of stacking a second copy on top.
const archiveBufSize = 256 << 10

// ArchiveWriter writes a multi-day trailered archive to a file one
// section at a time: an AtomicFile committed on Close, never holding more
// than one section's merge state and its key's record lines in memory.
// Sections must arrive in ascending day order. The first section, and every
// keyEvery-th after it, is a key, byte-identical to the day's
// WriteArchiveSection; every other is keyed to the key before it (keyed.go).
type ArchiveWriter struct {
	f       *AtomicFile
	keys    keyer
	lastDay simtime.Day
	hasDay  bool
}

// NewArchiveWriter starts a streamed archive replacing path on Close.
func NewArchiveWriter(path string) (*ArchiveWriter, error) {
	f, err := CreateAtomic(path, archiveBufSize)
	if err != nil {
		return nil, err
	}
	return &ArchiveWriter{f: f}, nil
}

// checkDay enforces the ascending-day section order.
func (aw *ArchiveWriter) checkDay(day simtime.Day) error {
	if aw.f.done {
		return fmt.Errorf("dataset: ArchiveWriter: section after Close")
	}
	if aw.hasDay && day <= aw.lastDay {
		return fmt.Errorf("dataset: ArchiveWriter: day %s not after %s (sections must be appended in ascending day order)", day, aw.lastDay)
	}
	aw.lastDay, aw.hasDay = day, true
	return nil
}

// Section streams one day's section from a SpillWriter.
func (aw *ArchiveWriter) Section(sw *SpillWriter) error {
	if err := aw.checkDay(sw.Day()); err != nil {
		return err
	}
	return aw.keys.section(aw.f.bw, aw.f.offset(), sw.day, sw.total, sw.body)
}

// Abort discards the partial archive, leaving any previous file at the
// target path untouched. Safe after Close (no-op).
func (aw *ArchiveWriter) Abort() { aw.f.Abort() }

// Close flushes, fsyncs, and atomically renames the archive into place; a
// rename whose directory fsync failed is reported, not assumed durable.
func (aw *ArchiveWriter) Close() error {
	if aw.f.done {
		return fmt.Errorf("dataset: ArchiveWriter: double Close")
	}
	return aw.f.Commit()
}
