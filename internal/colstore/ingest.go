package colstore

// Incremental ingest: the observatory path that grows a columnar world
// from observed daily snapshots, one archive section at a time, without
// ever rebuilding from scratch.
//
// Plan ingests *domain histories* (each row already knows its
// KeyDay/DSDay); an Ingester instead consumes what a long-running
// measurement actually produces — per-day observation snapshots — and
// derives the event columns on the fly:
//
//   - a domain's row is created the first day it is observed (Created);
//   - KeyDay / DSDay are the first observed days with a DNSKEY / DS;
//   - the breakage flags are latched from the most recent measured
//     observation (a chain that starts validating clears flagBroken);
//   - Failed placeholder records are skipped: "could not measure" never
//     creates or mutates a row.
//
// The resulting state is a pure function of the sequence of ingested
// sections. That purity is the crash-safety contract: persist the frozen
// index after a section prefix, reload it with NewIngesterFromIndex after
// a SIGKILL, replay the remaining sections, and the final index is
// byte-identical to a clean single-pass ingest (the apiserv chaos harness
// holds this as its oracle). Re-ingesting an identical section is
// idempotent for the same reason.
//
// An Ingester is not safe for concurrent use; the daemon's tailer owns it
// on one goroutine and publishes read-only views with Freeze.

import (
	"fmt"
	"hash/maphash"
	"math"
	"os"
	"strings"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// Ingester accumulates observed daily snapshots into mutable columns and
// freezes read-only Index views on demand.
type Ingester struct {
	rows rowTable // domain name → row

	packedNames
	opID    []uint32
	tldID   []uint16
	regID   []uint32
	created []int32
	keyDay  []int32
	dsDay   []int32
	fullDay []int32
	flags   []uint8

	// Intern tables in first-occurrence order. Scan records carry no
	// registrar identity, so ingested rows all intern the empty registrar
	// (which every registrar aggregation already excludes).
	ops  []string
	opNS []string
	tlds []string
	regs []string

	opIDs  map[string]uint32
	tldIDs map[string]uint16
	regIDs map[string]uint32
}

// NewIngester returns an empty ingester.
func NewIngester() *Ingester {
	return &Ingester{
		rows:        newRowTable(0),
		packedNames: packedNames{nameOff: []uint64{0}},
		opIDs:       make(map[string]uint32),
		tldIDs:      make(map[string]uint16),
		regIDs:      make(map[string]uint32),
	}
}

// rowTable finds a domain's row by name without holding a second copy of
// the names: an open-addressed table of row numbers, each compared against
// the packed name column it indexes. Like the columns it is pointer-free,
// so the collector's work does not grow with the ingested population, and
// it costs 4-8 bytes a domain where a map[string]int costs over forty.
type rowTable struct {
	slots []uint32 // row+1, 0 = empty; a power of two, at most half full
	seed  maphash.Seed
}

func newRowTable(rows int) rowTable {
	size := 16
	for size < 2*rows {
		size *= 2
	}
	return rowTable{slots: make([]uint32, size), seed: maphash.MakeSeed()}
}

// find returns name's row among names, or the empty slot it would take.
func (t *rowTable) find(names *packedNames, name string) (row int, ok bool, slot uint64) {
	mask := uint64(len(t.slots) - 1)
	for slot = maphash.String(t.seed, name) & mask; ; slot = (slot + 1) & mask {
		v := t.slots[slot]
		if v == 0 {
			return 0, false, slot
		}
		if names.name(int(v-1)) == name {
			return int(v - 1), true, slot
		}
	}
}

// put records the newest row of names, whose name find just missed at
// slot, rebuilding the table at twice the size once it is half full.
func (t *rowTable) put(names *packedNames, slot uint64) {
	n := len(names.nameOff) - 1
	t.slots[slot] = uint32(n)
	if 2*n >= len(t.slots) {
		*t = rowTable{slots: make([]uint32, 2*len(t.slots)), seed: t.seed}
		t.insert(names, n)
	}
}

// insert indexes rows [0, n) of names into an empty table, stopping at the
// first row whose name an earlier row already has.
func (t *rowTable) insert(names *packedNames, n int) (first, second int, dup bool) {
	for row := 0; row < n; row++ {
		prev, found, slot := t.find(names, names.name(row))
		if found {
			return prev, row, true
		}
		t.slots[slot] = uint32(row + 1)
	}
	return 0, 0, false
}

// NewIngesterFromIndex resumes ingest from a previously frozen and
// persisted index: every column and string is deep-copied, so the source
// index — typically an mmap-loaded world file — may be Closed immediately
// afterwards. The index must have been produced by an Ingester (or be
// otherwise free of duplicate domain names); a duplicate name is
// rejected, since ingest addresses rows by name.
func NewIngesterFromIndex(x *Index) (*Ingester, error) {
	if x.closed.Load() {
		return nil, ErrClosed
	}
	g := NewIngester()
	n := x.n
	if uint64(n) >= math.MaxUint32 {
		return nil, fmt.Errorf("colstore: cannot resume ingest: %d rows overflow the 32-bit row table", n)
	}
	g.nameBlob = append([]byte(nil), x.nameBlob...)
	g.nameOff = append([]uint64(nil), x.nameOff...)
	g.rows = newRowTable(n)
	if a, b, dup := g.rows.insert(&g.packedNames, n); dup {
		return nil, fmt.Errorf("colstore: cannot resume ingest: rows %d and %d are both domain %q", a, b, g.name(a))
	}
	g.opID = append([]uint32(nil), x.opID...)
	g.tldID = append([]uint16(nil), x.tldID...)
	g.regID = append([]uint32(nil), x.regID...)
	g.created = append([]int32(nil), x.created...)
	g.keyDay = append([]int32(nil), x.keyDay...)
	g.dsDay = append([]int32(nil), x.dsDay...)
	g.fullDay = append([]int32(nil), x.fullDay...)
	g.flags = append([]uint8(nil), x.flags...)

	g.ops = make([]string, len(x.ops))
	g.opNS = make([]string, len(x.ops))
	for i, op := range x.ops {
		op = strings.Clone(op)
		g.ops[i] = op
		g.opNS[i] = strings.Clone(x.opNS[i][0])
		g.opIDs[op] = uint32(i)
	}
	g.tlds = make([]string, len(x.tlds))
	for i, tld := range x.tlds {
		tld = strings.Clone(tld)
		g.tlds[i] = tld
		g.tldIDs[tld] = uint16(i)
	}
	g.regs = make([]string, len(x.regs))
	for i, reg := range x.regs {
		reg = strings.Clone(reg)
		g.regs[i] = reg
		g.regIDs[reg] = uint32(i)
	}
	return g, nil
}

// Len returns the current domain population.
func (g *Ingester) Len() int { return len(g.nameOff) - 1 }

// AppendDay folds one observed snapshot into the columns — the
// incremental alternative to rebuilding the world from the full archive.
// Sections may arrive in any day order (re-sweeps, backfills); event days
// record first observation, flags latch the latest. Failed records are
// skipped and counted in the return value.
func (g *Ingester) AppendDay(snap *dataset.Snapshot) (skipped int, err error) {
	day := clampDay(snap.Day)
	for i := range snap.Records {
		rec := &snap.Records[i]
		if rec.Failed {
			skipped++
			continue
		}
		row, ok, slot := g.rows.find(&g.packedNames, rec.Domain)
		if !ok {
			if err := g.appendRow(rec, day, slot); err != nil {
				return skipped, err
			}
			continue
		}
		if g.keyDay[row] == never && rec.HasDNSKEY {
			g.keyDay[row] = day
		}
		if g.dsDay[row] == never && rec.HasDS {
			g.dsDay[row] = day
		}
		g.flags[row] = observedFlags(rec)
		g.fullDay[row] = deriveFullDay(g.keyDay[row], g.dsDay[row], g.flags[row])
	}
	return skipped, nil
}

// FoldArchive folds the archive file at path into a fresh Ingester one
// verified section at a time, as regsec-api commits it: dataset.ScanArchive
// quarantines damage into the returned report, and every section it
// verifies is appended and frozen after. each, when non-nil, sees the
// section and the index frozen after it. That index answers for the
// section's day only when no later day is in it, so sections must ascend
// by day: one older than a section already folded is refused, not answered
// from later observations. The returned index is the last frozen, nil when
// no section verified.
func FoldArchive(path string, each func(*dataset.Snapshot, *Index) error) (*Index, *dataset.ArchiveReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	ing := NewIngester()
	var idx *Index
	var last simtime.Day
	report, err := dataset.ScanArchive(f, func(snap *dataset.Snapshot) error {
		if idx != nil && snap.Day < last {
			return fmt.Errorf("archive section %s follows section %s: sections must ascend by day", snap.Day, last)
		}
		if _, err := ing.AppendDay(snap); err != nil {
			return err
		}
		idx, last = ing.Freeze(), snap.Day
		if each == nil {
			return nil
		}
		return each(snap, idx)
	})
	return idx, report, err
}

// appendRow creates the row for a domain's first observation; slot is
// where the row table's lookup of its name came up empty.
func (g *Ingester) appendRow(rec *dataset.Record, day int32, slot uint64) error {
	if uint64(g.Len()) >= math.MaxUint32 {
		return fmt.Errorf("colstore: ingesting %q would overflow the 32-bit row table", rec.Domain)
	}
	op, ok := g.opIDs[rec.Operator]
	if !ok {
		op = uint32(len(g.ops))
		g.opIDs[rec.Operator] = op
		g.ops = append(g.ops, rec.Operator)
		host := ""
		if len(rec.NSHosts) > 0 {
			host = rec.NSHosts[0]
		}
		g.opNS = append(g.opNS, host)
	}
	tld, ok := g.tldIDs[rec.TLD]
	if !ok {
		if len(g.tlds) >= 1<<16 {
			return fmt.Errorf("colstore: ingesting %q would overflow the 16-bit TLD ID column", rec.TLD)
		}
		tld = uint16(len(g.tlds))
		g.tldIDs[rec.TLD] = tld
		g.tlds = append(g.tlds, rec.TLD)
	}
	// Scan records carry no registrar; all ingested rows share the
	// interned empty registrar.
	reg, ok := g.regIDs[""]
	if !ok {
		reg = uint32(len(g.regs))
		g.regIDs[""] = reg
		g.regs = append(g.regs, "")
	}
	fl := observedFlags(rec)
	keyDay, dsDay := never, never
	if rec.HasDNSKEY {
		keyDay = day
	}
	if rec.HasDS {
		dsDay = day
	}
	g.appendName(rec.Domain)
	g.rows.put(&g.packedNames, slot)
	g.opID = append(g.opID, op)
	g.tldID = append(g.tldID, tld)
	g.regID = append(g.regID, reg)
	g.created = append(g.created, day)
	g.keyDay = append(g.keyDay, keyDay)
	g.dsDay = append(g.dsDay, dsDay)
	g.fullDay = append(g.fullDay, deriveFullDay(keyDay, dsDay, fl))
	g.flags = append(g.flags, fl)
	return nil
}

// observedFlags infers the breakage flags from one measured observation:
// a DS that validates nothing is a broken chain, a DNSKEY without a
// verifying RRSIG is an expired/absent signature. Absence of the
// prerequisite (no DS, no DNSKEY) infers nothing.
func observedFlags(rec *dataset.Record) uint8 {
	var fl uint8
	if rec.HasDS && !rec.ChainValid {
		fl |= flagBroken
	}
	if rec.HasDNSKEY && !rec.HasRRSIG {
		fl |= flagExpired
	}
	return fl
}

// Freeze publishes the current state as a frozen Index safe for
// concurrent readers while ingest continues. The mutable columns (event
// days, flags) are copied; the append-only columns — the name blob and its
// offsets among them — and the intern tables are shared by bounded
// re-slice, so a freeze costs ~13 bytes per domain plus the finish() group
// derivation, and a row appended later lands past every frozen index's
// bounds. The returned index serves queries,
// Save/SaveFile persistence, and — via NewIngesterFromIndex — resume.
func (g *Ingester) Freeze() *Index {
	n := g.Len()
	blob := len(g.nameBlob)
	x := &Index{
		packedNames: packedNames{
			nameBlob: g.nameBlob[:blob:blob],
			nameOff:  g.nameOff[: n+1 : n+1],
		},
		opID:    g.opID[:n:n],
		tldID:   g.tldID[:n:n],
		regID:   g.regID[:n:n],
		created: g.created[:n:n],
		keyDay:  append([]int32(nil), g.keyDay...),
		dsDay:   append([]int32(nil), g.dsDay...),
		fullDay: append([]int32(nil), g.fullDay...),
		flags:   append([]uint8(nil), g.flags...),
		ops:     g.ops[:len(g.ops):len(g.ops)],
		tlds:    g.tlds[:len(g.tlds):len(g.tlds)],
		regs:    g.regs[:len(g.regs):len(g.regs)],
		opIDs:   make(map[string]uint32, len(g.ops)),
		tldIDs:  make(map[string]uint16, len(g.tlds)),
	}
	x.opNS = hostSlices(g.opNS)
	for i, op := range x.ops {
		x.opIDs[op] = uint32(i)
	}
	for i, tld := range x.tlds {
		x.tldIDs[tld] = uint16(i)
	}
	x.finish()
	return x
}
