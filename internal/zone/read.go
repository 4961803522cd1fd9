package zone

import (
	"slices"
	"sort"

	"securepki.org/registrarsec/internal/dnswire"
)

// Reader is the zone as one answer sees it: every call of a pass reads one
// state of the zone, under one hold of the read lock. Names go in canonical;
// RRsets come out as the zone's own slices, which the caller appends from
// before the pass ends and never keeps.
//
// A pass cannot produce a planned signature, enumerate RRSIGs some of which
// are planned, or order the denial chain: those take the write lock. The
// first such need voids the pass — what it goes on to read is discarded, and
// it asks for nothing more — and Read supplies it and runs the pass again.
// Supplying is not a mutation (see plan.go): it emits no Event, and what
// a cache noted before Read stands.
type Reader struct {
	z *Zone
	// need is what voided the pass, at name: the planned signature over
	// covered, every planned signature, or the denial chain's owner order.
	need    int
	name    string
	covered dnswire.Type
	// unmet is set once a need could not be supplied (a private key that
	// fails): from then on what is planned reads as absent, as it does to Sigs.
	unmet bool
}

const (
	needSig = iota + 1
	needSigs
	needOrder
)

// Read calls fn with a view of the zone, again from the start for as long as
// a pass ends void: fn builds its result from nothing each time. r is the
// caller's to reuse between calls; nil allocates one.
func (z *Zone) Read(r *Reader, fn func(*Reader)) {
	if r == nil {
		r = new(Reader)
	}
	*r = Reader{z: z}
	for z.pass(r, fn) {
		z.mu.Lock()
		switch i, planned := planIndex(z.plans[r.name], r.covered); {
		case r.need == needSig && planned:
			r.unmet = !z.produceLocked(r.name, i)
		case r.need == needSigs:
			z.produceNameLocked(r.name)
			r.unmet = len(z.plans[r.name]) > 0
		case r.need == needOrder:
			z.orderDenialLocked()
		}
		z.mu.Unlock()
	}
}

// pass runs fn once under the read lock and reports whether it ended void.
func (z *Zone) pass(r *Reader, fn func(*Reader)) bool {
	r.need = 0
	z.mu.RLock()
	defer z.mu.RUnlock()
	fn(r)
	return r.need != 0
}

// ask voids the pass over a need, unless an earlier one has or one went
// unmet, and reports whether the pass is void.
func (r *Reader) ask(need int, name string, covered dnswire.Type) bool {
	if r.need == 0 && !r.unmet {
		r.need, r.name, r.covered = need, name, covered
	}
	return r.need != 0
}

// Origin is the zone's apex name.
func (r *Reader) Origin() string { return r.z.Origin }

// HasName reports whether any RRset is owned by name.
func (r *Reader) HasName(name string) bool { return len(r.z.types[name]) > 0 }

// Delegation is DelegationFor within the pass.
func (r *Reader) Delegation(qname string) (string, []*dnswire.RR) { return r.z.delegationLocked(qname) }

// RRSet returns the RRset at (name, t), nil if absent. For TypeRRSIG that is
// every signature at name.
func (r *Reader) RRSet(name string, t dnswire.Type) []*dnswire.RR {
	if t == dnswire.TypeRRSIG && len(r.z.plans[name]) > 0 && r.ask(needSigs, name, 0) {
		return nil
	}
	return r.z.sets[rrKey{name, t}]
}

// AppendSigs appends the RRSIGs at name covering the given type.
func (r *Reader) AppendSigs(dst []*dnswire.RR, name string, covered dnswire.Type) []*dnswire.RR {
	if _, planned := planIndex(r.z.plans[name], covered); planned && r.ask(needSig, name, covered) {
		return dst
	}
	for _, rr := range r.z.sets[sigKey(name)] {
		if coveredBy(rr, covered) {
			dst = append(dst, rr)
		}
	}
	return dst
}

// AppendAll appends every RRset owned by name in ascending type order, the
// RRSIG RRset among them only when sigs is set.
func (r *Reader) AppendAll(dst []*dnswire.RR, name string, sigs bool) []*dnswire.RR {
	if sigs && len(r.z.plans[name]) > 0 && r.ask(needSigs, name, 0) {
		return dst
	}
	for _, t := range r.z.types[name] {
		if sigs || t != dnswire.TypeRRSIG {
			dst = append(dst, r.z.sets[rrKey{name, t}]...)
		}
	}
	return dst
}

// Before returns the owner that precedes name in canonical order among the
// owners of the zone's RRsets of type t, TypeNSEC or TypeNSEC3, wrapping
// from the first to the last: the one owner whose chain link can cover name
// ("" when there is no such RRset, which the apex of the root also is).
func (r *Reader) Before(t dnswire.Type, name string) string {
	z := r.z
	if z.denial == nil && z.nsecSets > 0 {
		r.ask(needOrder, "", 0)
	}
	owners := z.denial[t]
	if len(owners) == 0 {
		return ""
	}
	i := sort.Search(len(owners), func(i int) bool { return dnswire.CompareCanonical(owners[i], name) >= 0 })
	return owners[(i+len(owners)-1)%len(owners)]
}

// orderDenialLocked lists the owners of the zone's NSEC and of its NSEC3
// RRsets in canonical order — for NSEC3 owners, hash order. trackSetAdded and
// trackSetRemoved drop the lists when such an RRset appears or disappears,
// and the next answer that needs one has them rebuilt. z.mu must be held for
// writing; this is not a mutation.
func (z *Zone) orderDenialLocked() {
	z.denial = make(map[dnswire.Type][]string)
	for k := range z.sets {
		if k.typ == dnswire.TypeNSEC || k.typ == dnswire.TypeNSEC3 {
			z.denial[k.typ] = append(z.denial[k.typ], k.name)
		}
	}
	for _, owners := range z.denial {
		slices.SortFunc(owners, dnswire.CompareCanonical)
	}
}
