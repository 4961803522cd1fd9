package zone

import (
	"slices"

	"securepki.org/registrarsec/internal/dnswire"
)

// First-class invalidation: every committed mutation emits an Event scoped
// to the smallest set of cached responses it can possibly affect. Events
// fire after the mutation commits, so a cache that notes, before rendering
// a response, what the events it has seen stand at can tell that a
// response rendered from the state before a mutation is stale.
//
// Scoping rules (conservative by construction — an event may
// over-invalidate, never under-invalidate):
//
//   - Mutations touching NSEC/NSEC3/NSEC3PARAM data, or RRSIGs covering
//     them, escalate to ScopeZone: denial-of-existence proofs are chosen by
//     canonical-order spans, so one chain link can appear in responses for
//     arbitrary qnames.
//   - While a zone contains an NSEC chain, creating or destroying an owner
//     name escalates to ScopeZone for the same reason (the covering span of
//     every nearby name changes).
//   - While a zone contains any CNAME, every mutation escalates to
//     ScopeZone: a chased answer for owner O embeds records of target T, so
//     a name-scoped invalidation at T would strand O's cached response.
//   - Apex mutations (including BumpSerial) emit ScopeApex: only responses
//     that embed apex-owned records — negative answers carrying the SOA,
//     answers for the apex itself — depend on them.
//   - Everything else is ScopeName at the mutated owner; the cache layer
//     widens a name event to at least the enclosing delegation cut's
//     subtree, which covers referrals and their glue.
type Scope uint8

const (
	// ScopeName invalidates responses derived from one owner name (and, at
	// or under a delegation cut, the subtree the cut covers).
	ScopeName Scope = iota
	// ScopeApex invalidates responses embedding apex-owned records.
	ScopeApex
	// ScopeZone invalidates every response derived from the zone.
	ScopeZone
)

// Event describes one committed mutation.
type Event struct {
	// Name is the mutated owner (canonical); meaningful for ScopeName.
	Name  string
	Scope Scope
}

// OnEvent registers fn to be called after each mutation commits. Callbacks
// run outside the zone lock (reads from inside fn are safe) but on the
// mutating goroutine, so they must be fast and must not mutate the zone.
func (z *Zone) OnEvent(fn func(Event)) {
	z.mu.Lock()
	z.subs = append(z.subs, fn)
	z.mu.Unlock()
}

// eventLocked classifies a committed mutation at name affecting RRsets of
// type affects. structural reports that an owner name was created or
// destroyed. z.mu must be held.
func (z *Zone) eventLocked(name string, affects dnswire.Type, structural bool) Event {
	switch {
	case affects == dnswire.TypeNSEC || affects == dnswire.TypeNSEC3 || affects == dnswire.TypeNSEC3PARAM:
		return Event{Scope: ScopeZone}
	case structural && z.nsecSets > 0:
		return Event{Scope: ScopeZone}
	case z.cnameSets > 0:
		return Event{Scope: ScopeZone}
	case name == z.Origin:
		return Event{Name: name, Scope: ScopeApex}
	default:
		return Event{Name: name, Scope: ScopeName}
	}
}

// trackSetAdded/trackSetRemoved maintain the owners' type lists and the
// NSEC/CNAME RRset counters that drive escalation, as RRset k appears in or
// disappears from z.sets. z.mu must be held.
func (z *Zone) trackSetAdded(k rrKey) {
	types := z.types[k.name]
	i, _ := slices.BinarySearch(types, k.typ)
	z.types[k.name] = slices.Insert(types, i, k.typ)
	switch k.typ {
	case dnswire.TypeNSEC, dnswire.TypeNSEC3:
		z.nsecSets++
		z.denial = nil
	case dnswire.TypeCNAME:
		z.cnameSets++
	}
}

func (z *Zone) trackSetRemoved(k rrKey) {
	types := z.types[k.name]
	if i, ok := slices.BinarySearch(types, k.typ); ok {
		types = slices.Delete(types, i, i+1)
	}
	if len(types) == 0 {
		delete(z.types, k.name)
	} else {
		z.types[k.name] = types
	}
	switch k.typ {
	case dnswire.TypeNSEC, dnswire.TypeNSEC3:
		z.nsecSets--
		z.denial = nil
	case dnswire.TypeCNAME:
		z.cnameSets--
	}
}

func notify(subs []func(Event), ev Event) {
	for _, fn := range subs {
		fn(ev)
	}
}
