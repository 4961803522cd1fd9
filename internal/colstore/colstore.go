// Package colstore is the columnar incremental analytics engine for the
// longitudinal pipeline. The paper's core measurement is O(days × domains)
// — 21 months of daily snapshots over ~150M gTLD SLDs, re-classified into
// none/partial/full and re-grouped by DNS operator every day — and the
// naive reproduction paid that cost by materializing a fresh
// []dataset.Record per day and rebuilding string-keyed maps per analysis.
//
// colstore instead interns operators, TLDs and registrars into dense
// integer IDs once at build time and stores each domain as fixed-width
// columns (opID, tldID, keyDay, dsDay, fullDay, flags). On top of that
// layout it provides:
//
//   - incremental time series: per-(operator, TLD) key/DS/full event days
//     are sorted once, so an N-day series is a cursor sweep costing
//     O(group events + days) instead of O(days × all domains);
//   - sharded parallel aggregation: CountByOperator/CDF/Overview tally
//     into dense per-worker int32 counters through one shard-and-merge
//     helper, with no per-day map churn;
//   - cheap snapshot materialization: a prebuilt record template is
//     memcpy'd and only the four day-dependent booleans are patched, and
//     every record of an operator shares one NS-host slice.
//
// The package owns the result types of the paper's numbers (results.go):
// Table 1 rows, series points, operator counts and CDF steps, which the
// facade, apiserv and regsec-report hand on unchanged. Results are
// bit-identical to a record-at-a-time computation over tldsim.DomainState,
// which tldsim's tests keep as the oracle (referenceSnapshot /
// referenceSeries and the equivalence property tests), and to the
// snapshot aggregators of internal/analysis.
package colstore

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// ErrClosed reports use of an Index after Close released its memory
// mapping. SeriesCtx, Save and NewIngesterFromIndex return it; the
// error-free query variants panic with a pointed message instead, since
// reading an unmapped column would otherwise fault the whole process.
var ErrClosed = errors.New("colstore: index is closed")

// never mirrors simtime.Never in the int32 day columns (1<<30 fits).
const never = int32(simtime.Never)

// impossible marks an event that cannot occur at any day, including Never
// itself (a broken chain validating). It must compare greater than never.
const impossible = int32(1<<31 - 1)

// Domain is one domain's full history, one row of an Index.
type Domain struct {
	Name, TLD, Operator, Registrar string
	// NSHost is the operator's concrete nameserver hostname; every domain
	// of an operator shares one interned []string{NSHost} slice.
	NSHost                 string
	Created, KeyDay, DSDay simtime.Day
	BrokenDS, ExpiredSig   bool
}

const (
	flagBroken  uint8 = 1 << 0
	flagExpired uint8 = 1 << 1
)

// interner assigns the dense operator, TLD and registrar IDs of an index
// under construction, by first occurrence. Plan and the tests' sequential
// reference builder share it, so both number a given row sequence
// identically.
type interner struct {
	idx    *Index
	regIDs map[string]uint32
}

func newInterner() interner {
	return interner{
		idx: &Index{
			opIDs:  make(map[string]uint32),
			tldIDs: make(map[string]uint16),
		},
		regIDs: make(map[string]uint32),
	}
}

func (in *interner) intern(operator, nsHost, tld, registrar string) (op uint32, tldID uint16, reg uint32) {
	x := in.idx
	op, ok := x.opIDs[operator]
	if !ok {
		op = uint32(len(x.ops))
		x.opIDs[operator] = op
		x.ops = append(x.ops, operator)
		x.opNS = append(x.opNS, []string{nsHost})
	}
	tldID, ok = x.tldIDs[tld]
	if !ok {
		tldID = uint16(len(x.tlds))
		x.tldIDs[tld] = tldID
		x.tlds = append(x.tlds, tld)
	}
	reg, ok = in.regIDs[registrar]
	if !ok {
		reg = uint32(len(x.regs))
		in.regIDs[registrar] = reg
		x.regs = append(x.regs, registrar)
	}
	return op, tldID, reg
}

func historyFlags(brokenDS, expiredSig bool) uint8 {
	var fl uint8
	if brokenDS {
		fl |= flagBroken
	}
	if expiredSig {
		fl |= flagExpired
	}
	return fl
}

// deriveFullDay is the precomputed day full deployment begins: a domain is
// ChainValid once both halves are in place and neither breakage flag is
// set, i.e. from max(keyDay, dsDay) on. A broken/expired chain can never
// validate, which is a strictly stronger condition than "has not happened
// yet": a query AT day Never matches Never-valued events (the
// `KeyDay <= day` comparison of DomainState.RecordAt does), so the impossible case gets its own
// sentinel above never.
func deriveFullDay(keyDay, dsDay int32, fl uint8) int32 {
	if fl != 0 {
		return impossible
	}
	if dsDay > keyDay {
		return dsDay
	}
	return keyDay
}

// finish derives everything a frozen column set needs to serve queries:
// population size and the day-sorted event groups. It is shared by the
// planned fill, the ingester's Freeze and the on-disk loader, so every
// construction path yields an identical engine.
func (x *Index) finish() {
	x.n = len(x.nameOff) - 1

	// Bucket domains into (operator, TLD) event groups. Group identity is
	// opID<<16|tldID; the per-operator group lists let a tld=="" query
	// sweep an operator's few TLD groups without touching anyone else.
	// Rows arrive in cohort runs, so the map is probed only when the key
	// differs from the previous row's.
	x.groupIDs = make(map[uint64]int)
	x.opGroups = make([][]int, len(x.ops))
	prevKey, gi := uint64(0), -1
	for i := 0; i < x.n; i++ {
		if k := groupKey(x.opID[i], x.tldID[i]); gi < 0 || k != prevKey {
			var ok bool
			if gi, ok = x.groupIDs[k]; !ok {
				gi = len(x.groups)
				x.groupIDs[k] = gi
				x.groups = append(x.groups, eventGroup{op: x.opID[i], tld: x.tldID[i]})
				x.opGroups[x.opID[i]] = append(x.opGroups[x.opID[i]], gi)
			}
			prevKey = k
		}
		g := &x.groups[gi]
		g.total++
		if x.keyDay[i] != never {
			g.keyDays = append(g.keyDays, x.keyDay[i])
		}
		if x.dsDay[i] != never {
			g.dsDays = append(g.dsDays, x.dsDay[i])
			if x.fullDay[i] != impossible {
				// Mirrors the full-scan oracle's event list exactly: a DS-holding,
				// unbroken chain contributes max(KeyDay, DSDay) — which may
				// itself be Never when the zone is never signed.
				g.fullDays = append(g.fullDays, x.fullDay[i])
			}
		}
	}
	var counts []int32
	for gi := range x.groups {
		g := &x.groups[gi]
		counts = sortDays(g.keyDays, counts)
		counts = sortDays(g.dsDays, counts)
		counts = sortDays(g.fullDays, counts)
	}
}

// sortDays sorts an event list ascending, leaving exactly what slices.Sort
// would. It counts the days over their span, never (which a full-day list
// may hold) apart and last: O(len + span) instead of O(len log len). A list
// whose span is wider than maxSpread days per event is left to slices.Sort,
// which keeps the counts buffer at most maxSpread times the list. counts is
// scratch; sortDays returns it for the next call.
func sortDays(days, counts []int32) []int32 {
	const maxSpread = 8
	lo, hi, nevers := int32(math.MaxInt32), int32(math.MinInt32), 0
	for _, d := range days {
		if d == never {
			nevers++
			continue
		}
		lo, hi = min(lo, d), max(hi, d)
	}
	if nevers == len(days) {
		return counts
	}
	span := int64(hi) - int64(lo) + 1
	if hi > never || span > int64(maxSpread*len(days)) {
		slices.Sort(days)
		return counts
	}
	if int64(cap(counts)) < span {
		counts = make([]int32, span)
	} else {
		counts = counts[:span]
		clear(counts)
	}
	for _, d := range days {
		if d != never {
			counts[d-lo]++
		}
	}
	i := 0
	for off, n := range counts {
		for ; n > 0; n-- {
			days[i] = lo + int32(off)
			i++
		}
	}
	for ; i < len(days); i++ {
		days[i] = never
	}
	return counts
}

// ensureTemplate builds the day-independent record fields on first use.
// Lazy construction keeps built and loaded-from-disk indexes cheap until
// someone actually materializes a snapshot.
func (x *Index) ensureTemplate() {
	x.tmplOnce.Do(func() {
		x.template = make([]dataset.Record, x.n)
		for i := range x.template {
			x.template[i] = dataset.Record{
				Domain:   x.name(i),
				TLD:      x.tlds[x.tldID[i]],
				NSHosts:  x.opNS[x.opID[i]],
				Operator: x.ops[x.opID[i]],
			}
		}
	})
}

func groupKey(op uint32, tld uint16) uint64 {
	return uint64(op)<<16 | uint64(tld)
}

// eventGroup is one (operator, TLD) population's day-sorted adoption
// events; fullDays carries only never-broken chains (a subset of dsDays).
type eventGroup struct {
	op       uint32
	tld      uint16
	total    int
	keyDays  []int32
	dsDays   []int32
	fullDays []int32
}

// Index is the frozen columnar view of one domain population.
type Index struct {
	n int

	// Per-domain columns, held exactly as the world file's sections hold
	// them — pointer-free, whatever the population — so a built, an
	// ingested and an mmap-loaded index are the same dozen slices.
	packedNames
	opID    []uint32
	tldID   []uint16
	regID   []uint32
	created []int32
	keyDay  []int32
	dsDay   []int32
	fullDay []int32
	flags   []uint8

	// Intern tables.
	ops    []string
	tlds   []string
	regs   []string
	opNS   [][]string
	opIDs  map[string]uint32
	tldIDs map[string]uint16

	// Lazily built day-independent record fields for Snapshot.
	tmplOnce sync.Once
	template []dataset.Record

	// mapped is the mmap'd file backing a zero-copy Load; Close unmaps it.
	mapped []byte
	// closed latches after Close: a long-running daemon cycling worlds
	// across cache refreshes must get a pointed error (or panic) from a
	// use-after-Close, never a fault from reading unmapped memory.
	closed atomic.Bool

	// Materialized-view cache: the most recently projected days, shared
	// across callers. Projecting a day costs a full population pass and
	// ~100B/record of allocation; analyses overwhelmingly revisit the same
	// few days (usually the window end), so memoization turns the steady
	// state into a map hit.
	snapMu    sync.Mutex
	snapCache [snapCacheSize]*dataset.Snapshot

	// Incremental-series event groups.
	groups   []eventGroup
	groupIDs map[uint64]int
	opGroups [][]int
}

// Len returns the domain population size.
func (x *Index) Len() int { return x.n }

// Operators returns the number of distinct operators.
func (x *Index) Operators() int { return len(x.ops) }

// TLDs returns the interned TLD names in first-occurrence order, copied
// out of the index so the caller may hold them past Close.
func (x *Index) TLDs() []string {
	x.mustOpen()
	return append([]string(nil), x.tlds...)
}

// Target returns row i's (domain name, TLD) pair without gathering the
// rest of the row — the cursor accessor the streaming sweep's
// scan.TargetSource contract is built on. Both strings view the index's
// backing (possibly an mmap), so they are valid only while the index is
// open; a chunked sweep that flushes records before Close never notices.
func (x *Index) Target(i int) (domain, tld string) {
	x.mustOpen()
	return x.name(i), x.tlds[x.tldID[i]]
}

// Row projects domain i back into the history it was built from. Day
// sentinels round-trip (never → simtime.Never); fullDay is derived state
// and needs no inverse.
func (x *Index) Row(i int) Domain {
	x.mustOpen()
	toDay := func(v int32) simtime.Day {
		if v == never {
			return simtime.Never
		}
		return simtime.Day(v)
	}
	return Domain{
		Name:       x.name(i),
		TLD:        x.tlds[x.tldID[i]],
		Operator:   x.ops[x.opID[i]],
		Registrar:  x.regs[x.regID[i]],
		NSHost:     x.opNS[x.opID[i]][0],
		Created:    toDay(x.created[i]),
		KeyDay:     toDay(x.keyDay[i]),
		DSDay:      toDay(x.dsDay[i]),
		BrokenDS:   x.flags[i]&flagBroken != 0,
		ExpiredSig: x.flags[i]&flagExpired != 0,
	}
}

// Close releases the memory mapping of a zero-copy loaded index. After
// Close every string and column view into the mapping is invalid: queries
// through the context-aware variants return ErrClosed, the legacy
// error-free variants panic with a pointed message, and a second Close is
// itself an error — both are caller lifetime bugs that would otherwise
// surface as a fault deep inside a column scan. For indexes built in
// memory Close releases nothing but the misuse contract is identical, so
// code paths behave the same however their world was constructed.
func (x *Index) Close() error {
	if x.closed.Swap(true) {
		return fmt.Errorf("colstore: Close of already-closed index: %w", ErrClosed)
	}
	if x.mapped == nil {
		return nil
	}
	m := x.mapped
	x.mapped = nil
	return munmap(m)
}

// mustOpen guards the legacy error-free query surface against
// use-after-Close: reading a column of an unmapped world is a process
// fault, so misuse dies here with a message that names the bug instead.
func (x *Index) mustOpen() {
	if x.closed.Load() {
		panic("colstore: use of closed Index: Close already released its backing; keep the world open for the lifetime of its queries (or use SeriesCtx, which returns ErrClosed)")
	}
}

// snapCacheSize bounds the materialized-view cache (MRU first).
const snapCacheSize = 2

// Snapshot materializes the whole population at one day. The first
// projection of a day is a single fused pass — each record is the
// prebuilt template entry with the day-dependent booleans patched in
// registers, no per-record slice or string allocation — and the result is
// memoized, so repeated analyses of the same day share one view.
//
// The returned snapshot is that shared view: callers must treat it as
// read-only (in particular, do not Canonicalize it). Use Materialize for
// a private copy.
func (x *Index) Snapshot(day simtime.Day) *dataset.Snapshot {
	x.mustOpen()
	x.snapMu.Lock()
	defer x.snapMu.Unlock()
	for i, snap := range x.snapCache {
		if snap != nil && snap.Day == day {
			// Move to front so the working set's days stay resident.
			copy(x.snapCache[1:i+1], x.snapCache[:i])
			x.snapCache[0] = snap
			return snap
		}
	}
	snap := x.Materialize(day)
	copy(x.snapCache[1:], x.snapCache[:snapCacheSize-1])
	x.snapCache[0] = snap
	return snap
}

// Materialize projects the population at one day into a freshly allocated
// snapshot the caller owns, bypassing the shared-view cache.
func (x *Index) Materialize(day simtime.Day) *dataset.Snapshot {
	x.mustOpen()
	x.ensureTemplate()
	recs := make([]dataset.Record, x.n)
	d := clampDay(day)
	for i := range recs {
		r := x.template[i]
		if x.keyDay[i] <= d {
			r.HasDNSKEY = true
			r.HasRRSIG = true
		}
		if x.dsDay[i] <= d {
			r.HasDS = true
		}
		if x.fullDay[i] <= d {
			r.ChainValid = true
		}
		recs[i] = r
	}
	return &dataset.Snapshot{Day: day, Records: recs}
}

// cancelStride is how many series steps a cancellable scan processes
// between context polls: small enough that a dropped request stops burning
// CPU within microseconds, large enough that the poll is invisible in
// throughput.
const cancelStride = 32 << 10

// Series computes the daily deployment series for one operator (all its
// TLDs when tld == "") by sweeping cursors over the day-sorted event
// groups: O(group events + days) total, independent of the rest of the
// population. Unknown operators/TLDs yield all-zero points, matching the
// full-scan oracle.
func (x *Index) Series(operator, tld string, from, to simtime.Day, stepDays int) []SeriesPoint {
	x.mustOpen()
	out, _ := x.SeriesCtx(context.Background(), operator, tld, from, to, stepDays)
	return out
}

// SeriesCtx is Series with cancellation: the day sweep polls the context
// every cancelStride steps, so an API request dropped mid-series stops
// paying for the rest of the range, and a closed index answers ErrClosed.
func (x *Index) SeriesCtx(ctx context.Context, operator, tld string, from, to simtime.Day, stepDays int) ([]SeriesPoint, error) {
	if x.closed.Load() {
		return nil, ErrClosed
	}
	if stepDays <= 0 {
		stepDays = 1
	}
	// One slice carries both the resolved groups and their advancing
	// cursors, sized exactly, so a whole sweep costs two allocations.
	type cursor struct {
		g       *eventGroup
		k, d, f int
	}
	var curs []cursor
	if opID, ok := x.opIDs[operator]; ok {
		if tld == "" {
			ogs := x.opGroups[opID]
			curs = make([]cursor, len(ogs))
			for i, gi := range ogs {
				curs[i].g = &x.groups[gi]
			}
		} else if tldID, ok := x.tldIDs[tld]; ok {
			if gi, ok := x.groupIDs[groupKey(opID, tldID)]; ok {
				curs = []cursor{{g: &x.groups[gi]}}
			}
		}
	}
	total := 0
	for i := range curs {
		total += curs[i].g.total
	}
	var out []SeriesPoint
	if from <= to {
		out = make([]SeriesPoint, 0, int(to-from)/stepDays+1)
	}
	// Each cursor only ever advances, so the whole sweep touches every
	// event at most once regardless of the day range.
	withKey, withDS, full := 0, 0, 0
	steps := 0
	for day := from; day <= to; day += simtime.Day(stepDays) {
		if steps%cancelStride == 0 && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		steps++
		d := clampDay(day)
		for i := range curs {
			c := &curs[i]
			g := c.g
			for c.k < len(g.keyDays) && g.keyDays[c.k] <= d {
				c.k++
				withKey++
			}
			for c.d < len(g.dsDays) && g.dsDays[c.d] <= d {
				c.d++
				withDS++
			}
			for c.f < len(g.fullDays) && g.fullDays[c.f] <= d {
				c.f++
				full++
			}
		}
		out = append(out, SeriesPoint{
			Day:        day,
			Total:      total,
			WithDNSKEY: withKey,
			WithDS:     withDS,
			Full:       full,
		})
	}
	return out, nil
}

// clampDay converts a simtime.Day to the int32 column domain. Days at or
// past Never (including Never itself) saturate to never, preserving the
// "has not happened" comparison semantics.
func clampDay(day simtime.Day) int32 {
	if day >= simtime.Never {
		return never
	}
	return int32(day)
}

// DomainsByRegistrar tallies population per named registrar in the given
// TLDs (all TLDs when none given), via the dense registrar ID column.
func (x *Index) DomainsByRegistrar(tlds ...string) map[string]int {
	return x.registrarCounts(never, tlds)
}

// DNSKEYByRegistrar tallies DNSKEY-publishing domains per named registrar
// at the given day.
func (x *Index) DNSKEYByRegistrar(day simtime.Day, tlds ...string) map[string]int {
	return x.registrarCounts(clampDay(day), tlds)
}

// registrarCounts is the shared dense tally: keyedBy==never counts every
// domain, otherwise only those with keyDay <= keyedBy.
func (x *Index) registrarCounts(keyedBy int32, tlds []string) map[string]int {
	x.mustOpen()
	tldMask := x.tldMask(tlds)
	counts := make([]int32, len(x.regs))
	for i := 0; i < x.n; i++ {
		if x.regs[x.regID[i]] == "" {
			continue
		}
		if tldMask != nil && !tldMask[x.tldID[i]] {
			continue
		}
		if keyedBy != never && x.keyDay[i] > keyedBy {
			continue
		}
		counts[x.regID[i]]++
	}
	out := map[string]int{}
	for id, n := range counts {
		if n > 0 {
			out[x.regs[id]] = int(n)
		}
	}
	return out
}

// tldMask resolves TLD names to a dense bitmap over interned IDs; nil
// means "all TLDs". Unknown names simply match nothing.
func (x *Index) tldMask(tlds []string) []bool {
	if len(tlds) == 0 {
		return nil
	}
	mask := make([]bool, len(x.tlds))
	for _, t := range tlds {
		if id, ok := x.tldIDs[t]; ok {
			mask[id] = true
		}
	}
	return mask
}
