package colstore

import (
	"fmt"
	"sync"
	"sync/atomic"

	"securepki.org/registrarsec/internal/simtime"
)

// Planned construction: a generator that knows, before it draws a single
// domain, how many rows and how many name bytes every run of rows will
// take, builds the index in place. Reserve lays the runs out end to end —
// serially, in row order, interning each run's operator, TLD and registrar
// by first occurrence exactly as a sequential row-at-a-time builder fed
// the same rows would — and then any number of goroutines fill the runs
// through RowWriters, each writing only its own row and byte range of the
// final columns. Nothing is copied or renumbered afterwards, and the result
// cannot depend on which goroutine filled what.
type Plan struct {
	interner
	runs      []plannedRun
	rows      int
	nameBytes uint64
	alloc     sync.Once
	sized     atomic.Bool // the columns are made: no Reserve may follow
}

// plannedRun is one reserved run of rows sharing operator, TLD and
// registrar, and what its writer reported on Close.
type plannedRun struct {
	rowLo, rowHi   int
	byteLo, byteHi uint64
	op             uint32
	tld            uint16
	reg            uint32
	filled         bool // closed having written exactly the reserved rows and bytes
	gotRows        int
	gotBytes       uint64
}

// NewPlan returns an empty plan with room for the given number of runs,
// and for as many operators.
func NewPlan(runs int) *Plan {
	return &Plan{interner: newInterner(runs), runs: make([]plannedRun, 0, runs)}
}

// Reserve appends a run of rows whose names total exactly nameBytes and
// returns its number. An empty run interns nothing, as it would have
// contributed no row to intern from. A Reserve after the first Writer
// panics: the columns are already made at the plan's size, and earlier
// writers hold the runs in place.
func (p *Plan) Reserve(rows int, nameBytes uint64, operator, nsHost, tld, registrar string) int {
	if p.sized.Load() {
		panic("colstore: Plan.Reserve after Plan.Writer: the columns are already sized")
	}
	r := plannedRun{
		rowLo: p.rows, rowHi: p.rows + rows,
		byteLo: p.nameBytes, byteHi: p.nameBytes + nameBytes,
		filled: rows == 0 && nameBytes == 0,
	}
	if rows > 0 {
		r.op, r.tld, r.reg = p.intern(operator, nsHost, tld, registrar)
	}
	p.rows, p.nameBytes = r.rowHi, r.byteHi
	p.runs = append(p.runs, r)
	return len(p.runs) - 1
}

// Writer returns the writer for one reserved run. Every Reserve must
// precede the first Writer; writers of different runs may then be used
// from different goroutines at once.
func (p *Plan) Writer(run int) RowWriter {
	p.alloc.Do(p.allocate)
	r := &p.runs[run]
	return RowWriter{x: p.idx, run: r, row: r.rowLo, off: r.byteLo}
}

// allocate makes the columns at their final sizes, each on a goroutine of
// its own: a large allocation is zeroed outside the heap lock, so the
// columns are cleared on every core while the first writer waits.
func (p *Plan) allocate() {
	p.sized.Store(true)
	x, n := p.idx, p.rows
	columns := []func(){
		func() { x.nameBlob = make([]byte, p.nameBytes) },
		func() { x.nameOff = make([]uint64, n+1) },
		func() { x.opID = make([]uint32, n) },
		func() { x.tldID = make([]uint16, n) },
		func() { x.regID = make([]uint32, n) },
		func() { x.created = make([]int32, n) },
		func() { x.keyDay = make([]int32, n) },
		func() { x.dsDay = make([]int32, n) },
		func() { x.fullDay = make([]int32, n) },
		func() { x.flags = make([]uint8, n) },
	}
	onWorkers(len(columns), func(i int) { columns[i]() })
}

// Build freezes the filled columns into an Index. A run that was not
// closed, or was closed short of or past its reservation, is an error:
// the rows after it would sit at the wrong positions.
func (p *Plan) Build() (*Index, error) {
	for i := range p.runs {
		if r := &p.runs[i]; !r.filled {
			return nil, fmt.Errorf("colstore: planned run %d reserved %d rows and %d name bytes, its writer closed with %d and %d",
				i, r.rowHi-r.rowLo, r.byteHi-r.byteLo, r.gotRows, r.gotBytes)
		}
	}
	p.alloc.Do(p.allocate) // a plan of no rows is still an index
	p.idx.opNS = hostSlices(p.nsHosts)
	p.idx.finish()
	return p.idx, nil
}

// RowWriter fills one reserved run, front to back.
type RowWriter struct {
	x    *Index
	run  *plannedRun
	row  int
	off  uint64
	over bool // an Add did not fit the reservation and was dropped
}

// Add writes the run's next row. The name is copied; the caller may reuse
// its buffer. A row that would not fit the reservation is dropped — it
// must not land in a neighbour's range — and fails the plan at Build.
func (w *RowWriter) Add(name []byte, created, keyDay, dsDay simtime.Day, brokenDS, expiredSig bool) {
	if w.row == w.run.rowHi || uint64(len(name)) > w.run.byteHi-w.off {
		w.over = true
		return
	}
	x, i := w.x, w.row
	copy(x.nameBlob[w.off:], name)
	w.off += uint64(len(name))
	x.nameOff[i+1] = w.off
	fl := historyFlags(brokenDS, expiredSig)
	x.opID[i] = w.run.op
	x.tldID[i] = w.run.tld
	x.regID[i] = w.run.reg
	x.created[i] = clampDay(created)
	x.keyDay[i] = int32(keyDay)
	x.dsDay[i] = int32(dsDay)
	x.fullDay[i] = deriveFullDay(int32(keyDay), int32(dsDay), fl)
	x.flags[i] = fl
	w.row++
}

// Close records whether the run came out exactly as reserved.
func (w *RowWriter) Close() {
	r := w.run
	r.gotRows, r.gotBytes = w.row-r.rowLo, w.off-r.byteLo
	r.filled = !w.over && w.row == r.rowHi && w.off == r.byteHi
}
