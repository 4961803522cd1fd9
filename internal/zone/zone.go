// Package zone provides an authoritative zone data model, DNSSEC zone
// signing with a KSK/ZSK split, and a master-file (RFC 1035 section 5)
// parser and serializer.
//
// A Zone holds the RRsets of one DNS zone, understands delegation cuts
// (child NS records plus optional DS and glue), and can answer the lookup
// queries an authoritative server needs: exact RRset match, delegation
// search and existence checks.
package zone

import (
	"fmt"
	"slices"
	"sort"
	"sync"

	"securepki.org/registrarsec/internal/dnswire"
)

// rrKey identifies one RRset within a zone.
type rrKey struct {
	name string
	typ  dnswire.Type
}

// Zone is a mutable collection of RRsets rooted at Origin. It is safe for
// concurrent use; the simulation mutates zones (registrars enabling DNSSEC,
// owners switching nameservers) while the scanner reads them. Mutations
// emit invalidation Events (see events.go) so response caches can flush
// exactly the affected names.
type Zone struct {
	// Origin is the canonical apex name of the zone.
	Origin string
	// DefaultTTL is applied by the parser when no TTL is given.
	DefaultTTL uint32

	mu   sync.RWMutex
	sets map[rrKey][]*dnswire.RR
	// types lists, ascending, the types of the RRsets at each owner, so
	// existence checks and owner walks do not range over sets;
	// trackSetAdded/trackSetRemoved maintain it.
	types map[string][]dnswire.Type
	subs  []func(Event)
	// nsecSets and cnameSets count RRsets whose presence forces zone-wide
	// invalidation scopes (see eventLocked).
	nsecSets  int
	cnameSets int
	// plans holds, per owner and ordered by covered type, the signatures
	// that were planned and that no reader has needed yet (see plan.go). An
	// owner with plans counts as holding an RRSIG RRset in types.
	plans map[string][]sigPlan
	// signer is a copy of the Signer whose Sign last planned the whole zone,
	// nil for a zone that is unsigned or was signed elsewhere; BumpSerial
	// re-plans the SOA's signature under it.
	signer *Signer
	// denial holds the owners of the NSEC and of the NSEC3 RRsets in canonical
	// order, nil until an answer needs them and again after such an RRset
	// appeared or disappeared (see Reader.Before).
	denial map[dnswire.Type][]string
}

// New creates an empty zone for the given origin.
func New(origin string) *Zone {
	return &Zone{
		Origin:     dnswire.CanonicalName(origin),
		DefaultTTL: 3600,
		sets:       make(map[rrKey][]*dnswire.RR),
		types:      make(map[string][]dnswire.Type),
	}
}

// Add inserts a record. Records outside the zone's bailiwick are rejected.
// Exact duplicates (same name, type and RDATA) are silently collapsed.
func (z *Zone) Add(rr *dnswire.RR) error {
	if !dnswire.IsSubdomain(rr.Name, z.Origin) {
		return fmt.Errorf("zone %s: record %s out of bailiwick", present(z.Origin), rr.Name)
	}
	wire, err := rr.CanonicalWire()
	if err != nil {
		return err
	}
	z.mu.Lock()
	k := rrKey{rr.Name, rr.Type}
	for _, have := range z.sets[k] {
		hw, _ := have.CanonicalWire()
		if string(hw) == string(wire) {
			z.mu.Unlock()
			return nil
		}
	}
	structural := len(z.types[rr.Name]) == 0
	affects := rr.Type
	if rr.Type != dnswire.TypeRRSIG {
		z.sets[k] = append(z.sets[k], rr)
		if len(z.sets[k]) == 1 {
			z.trackSetAdded(k)
		}
	} else {
		had := z.hasSigsLocked(rr.Name)
		z.sets[k] = insertSig(z.sets[k], rr)
		z.trackSigsLocked(rr.Name, had)
		if sig, ok := rr.Data.(*dnswire.RRSIG); ok {
			affects = sig.TypeCovered
		}
	}
	ev := z.eventLocked(rr.Name, affects, structural)
	subs := z.subs
	z.mu.Unlock()
	notify(subs, ev)
	return nil
}

// MustAdd is Add for construction paths where records are known-valid.
func (z *Zone) MustAdd(rr *dnswire.RR) {
	if err := z.Add(rr); err != nil {
		panic(err)
	}
}

// Remove deletes the whole RRset at (name, type); for TypeRRSIG that takes
// the planned signatures with it.
func (z *Zone) Remove(name string, t dnswire.Type) {
	name = dnswire.CanonicalName(name)
	z.mu.Lock()
	k := rrKey{name, t}
	_, ok := z.sets[k]
	if t == dnswire.TypeRRSIG {
		ok = z.hasSigsLocked(name)
	}
	if !ok {
		z.mu.Unlock()
		return
	}
	if t == dnswire.TypeRRSIG {
		delete(z.plans, name)
	}
	delete(z.sets, k)
	z.trackSetRemoved(k)
	ev := z.eventLocked(name, t, len(z.types[name]) == 0)
	subs := z.subs
	z.mu.Unlock()
	notify(subs, ev)
}

// RemoveSigs deletes the RRSIGs at name that cover type t, planned or
// produced, leaving other signatures at the same owner untouched.
func (z *Zone) RemoveSigs(name string, t dnswire.Type) {
	z.resign(dnswire.CanonicalName(name), t, nil)
}

// RemoveType deletes every RRset of the given type anywhere in the zone
// (used to strip RRSIG/NSEC before re-signing); for TypeRRSIG that is every
// planned signature too, and the signer they were planned under. Always a
// zone-wide event.
func (z *Zone) RemoveType(t dnswire.Type) {
	z.mu.Lock()
	if t == dnswire.TypeRRSIG {
		for name := range z.plans {
			z.dropPlansLocked(name)
		}
		z.signer = nil
	}
	for k := range z.sets {
		if k.typ == t {
			delete(z.sets, k)
			z.trackSetRemoved(k)
		}
	}
	subs := z.subs
	z.mu.Unlock()
	notify(subs, Event{Scope: ScopeZone})
}

// Lookup returns a copy of the RRset at (name, type), nil if absent. For
// TypeRRSIG that is every signature at name, produced now if still planned;
// a response that needs the signatures over one RRset asks Sigs.
func (z *Zone) Lookup(name string, t dnswire.Type) (out []*dnswire.RR) {
	name = dnswire.CanonicalName(name)
	z.Read(nil, func(r *Reader) { out = append([]*dnswire.RR(nil), r.RRSet(name, t)...) })
	return out
}

// LookupAll returns every RRset owned by name, grouped by type.
func (z *Zone) LookupAll(name string) map[dnswire.Type][]*dnswire.RR {
	name = dnswire.CanonicalName(name)
	defer z.lockProduced(name, false)()
	out := make(map[dnswire.Type][]*dnswire.RR)
	for _, t := range z.types[name] {
		if set := z.sets[rrKey{name, t}]; len(set) > 0 {
			out[t] = append([]*dnswire.RR(nil), set...)
		}
	}
	return out
}

// Names returns every owner name in canonical (RFC 4034 section 6.1) order.
func (z *Zone) Names() []string {
	z.mu.RLock()
	names := make([]string, 0, len(z.types))
	for n := range z.types {
		names = append(names, n)
	}
	z.mu.RUnlock()
	sort.Slice(names, func(i, j int) bool {
		return dnswire.CompareCanonical(names[i], names[j]) < 0
	})
	return names
}

// RRSets invokes fn for every RRset in deterministic order. fn must not
// mutate the zone.
func (z *Zone) RRSets(fn func(name string, t dnswire.Type, rrs []*dnswire.RR)) {
	unlock := z.lockProduced("", true)
	keys := make([]rrKey, 0, len(z.sets))
	for k := range z.sets {
		keys = append(keys, k)
	}
	unlock()
	sort.Slice(keys, func(i, j int) bool {
		if c := dnswire.CompareCanonical(keys[i].name, keys[j].name); c != 0 {
			return c < 0
		}
		return keys[i].typ < keys[j].typ
	})
	for _, k := range keys {
		if set := z.Lookup(k.name, k.typ); len(set) > 0 {
			fn(k.name, k.typ, set)
		}
	}
}

// Len returns the total number of records.
func (z *Zone) Len() int {
	defer z.lockProduced("", true)()
	n := 0
	for _, set := range z.sets {
		n += len(set)
	}
	return n
}

// SOA returns the apex SOA record, or nil.
func (z *Zone) SOA() *dnswire.RR {
	set := z.Lookup(z.Origin, dnswire.TypeSOA)
	if len(set) == 0 {
		return nil
	}
	return set[0]
}

// BumpSerial increments the SOA serial, creating change visibility for
// secondaries and scanners. It emits an apex-scoped event: only cached
// responses that embed apex-owned records (the SOA in negative answers,
// apex RRset answers) depend on the serial, so per-mutation serial bumps
// do not flush the rest of the zone's cached responses.
//
// The SOA record is replaced, never written: readers pack records they
// looked up after releasing the zone lock. In a zone planned by Sign, the
// SOA's signature is planned again over the new serial, under the same
// signer.
func (z *Zone) BumpSerial() {
	z.mu.Lock()
	k := rrKey{z.Origin, dnswire.TypeSOA}
	next := append([]*dnswire.RR(nil), z.sets[k]...)
	for i, rr := range next {
		if soa, ok := rr.Data.(*dnswire.SOA); ok {
			bumped, cp := *soa, *rr
			bumped.Serial++
			cp.Data = &bumped
			next[i] = &cp
		}
	}
	if len(next) > 0 {
		z.sets[k] = next
		if z.signer != nil && z.signedLocked(z.Origin, dnswire.TypeSOA) {
			// The signature covered the old serial. Only the serial changed,
			// so what was signable still is; were it not, the SOA goes
			// unsigned rather than out with a signature that cannot verify.
			p, _ := z.signer.prepare(z.Origin, next)
			z.resignLocked(z.Origin, dnswire.TypeSOA, p)
		}
	}
	ev := z.eventLocked(z.Origin, dnswire.TypeSOA, false)
	subs := z.subs
	z.mu.Unlock()
	notify(subs, ev)
}

// DelegationFor finds the closest delegation cut at or above qname (strictly
// below the apex). It returns the cut name and its NS RRset, or "" when
// qname is authoritatively inside this zone.
func (z *Zone) DelegationFor(qname string) (string, []*dnswire.RR) {
	z.mu.RLock()
	defer z.mu.RUnlock()
	cut, ns := z.delegationLocked(dnswire.CanonicalName(qname))
	return cut, append([]*dnswire.RR(nil), ns...)
}

// delegationLocked is DelegationFor for a canonical qname, returning the
// zone's own NS RRset. z.mu must be held.
func (z *Zone) delegationLocked(qname string) (string, []*dnswire.RR) {
	if !dnswire.IsSubdomain(qname, z.Origin) {
		return "", nil
	}
	// Walk from qname up to (but excluding) the apex looking for NS sets.
	for cur := qname; cur != z.Origin; {
		if ns := z.sets[rrKey{cur, dnswire.TypeNS}]; len(ns) > 0 {
			return cur, ns
		}
		p, ok := dnswire.Parent(cur)
		if !ok || !dnswire.IsSubdomain(p, z.Origin) {
			break
		}
		cur = p
	}
	return "", nil
}

// Clone produces a deep-enough copy: RRset slices are copied; the records
// themselves are shared (they are treated as immutable once added). Planned
// signatures are produced first, so the copy and the original serve the same
// bytes.
func (z *Zone) Clone() *Zone {
	defer z.lockProduced("", true)()
	c := New(z.Origin)
	c.DefaultTTL = z.DefaultTTL
	c.signer = z.signer
	c.nsecSets, c.cnameSets = z.nsecSets, z.cnameSets
	for k, set := range z.sets {
		c.sets[k] = append([]*dnswire.RR(nil), set...)
	}
	for name, types := range z.types {
		c.types[name] = slices.Clone(types)
	}
	return c
}

func present(name string) string {
	if name == "" {
		return "."
	}
	return name
}
