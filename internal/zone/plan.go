package zone

import (
	"sort"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
)

// Signatures at first read. Signer.Sign and SignSet do not run the private
// key: for each RRset they sign they leave a plan on the zone — the RRSIG
// complete but for its signature, over the RRset as it stood — and the zone
// produces the signature the first time a reader needs it, then keeps it.
// What a reader sees is what signing up front would have shown it:
//
//   - Installing, replacing or dropping a plan is a mutation (an Event).
//     Producing a planned signature is not: the zone's content, as every
//     reader observes it, is the same before and after, so a response
//     rendered across a production is cacheable and no cache entry goes
//     stale by one.
//   - The RRSIG RRset at an owner is ordered by covered type, whatever order
//     its members were produced or added in, so an answer does not depend on
//     which question was asked first.
//   - Sigs produces the one signature set it returns. Whatever enumerates
//     RRSIGs — Lookup of TypeRRSIG, LookupAll, RRSets (so AXFR and the
//     master-file writer), Len, Clone — first produces what it is about to
//     enumerate.
//   - A plan is dropped by what would have removed the signature: RemoveSigs,
//     Remove of the RRSIG set, RemoveType(RRSIG) (so Unsign and a
//     second Sign), or a new plan for the same RRset. Removing or changing
//     the covered RRset does not touch it, as it would not have touched the
//     signature.

// sigPlan is one planned signature at an owner.
type sigPlan struct {
	covered dnswire.Type
	pending *dnssec.PendingSig
}

// sigKey is where the RRSIG RRset of an owner is filed.
func sigKey(name string) rrKey { return rrKey{name, dnswire.TypeRRSIG} }

// coveredBy reports whether rr is an RRSIG covering t.
func coveredBy(rr *dnswire.RR, t dnswire.Type) bool {
	sig, ok := rr.Data.(*dnswire.RRSIG)
	return ok && sig.TypeCovered == t
}

// insertSig files rr in an owner's RRSIG set: after the signatures covering
// its type or a lower one, before the rest.
func insertSig(set []*dnswire.RR, rr *dnswire.RR) []*dnswire.RR {
	sig, ok := rr.Data.(*dnswire.RRSIG)
	if !ok {
		return append(set, rr)
	}
	i := sort.Search(len(set), func(i int) bool {
		have, ok := set[i].Data.(*dnswire.RRSIG)
		return !ok || have.TypeCovered > sig.TypeCovered
	})
	set = append(set, nil)
	copy(set[i+1:], set[i:])
	set[i] = rr
	return set
}

// planIndex finds the plan covering t among an owner's plans, which are
// ordered by covered type: its index, or where it would go.
func planIndex(plans []sigPlan, t dnswire.Type) (int, bool) {
	i := sort.Search(len(plans), func(i int) bool { return plans[i].covered >= t })
	return i, i < len(plans) && plans[i].covered == t
}

// unplanLocked forgets plan i at name. z.mu must be held.
func (z *Zone) unplanLocked(name string, i int) {
	plans := z.plans[name]
	if plans = append(plans[:i], plans[i+1:]...); len(plans) == 0 {
		delete(z.plans, name)
	} else {
		z.plans[name] = plans
	}
}

// signedLocked reports whether (name, t) has a signature, filed or planned.
// z.mu must be held.
func (z *Zone) signedLocked(name string, t dnswire.Type) bool {
	if _, planned := planIndex(z.plans[name], t); planned {
		return true
	}
	for _, rr := range z.sets[sigKey(name)] {
		if coveredBy(rr, t) {
			return true
		}
	}
	return false
}

// hasSigsLocked reports whether an RRSIG RRset exists at name, filed,
// planned or both; it is what z.types lists as TypeRRSIG. z.mu must be held.
func (z *Zone) hasSigsLocked(name string) bool {
	return len(z.sets[sigKey(name)]) > 0 || len(z.plans[name]) > 0
}

// trackSigsLocked brings z.types up to date after the RRSIG RRset at name,
// which existed or not as had says, was changed. z.mu must be held.
func (z *Zone) trackSigsLocked(name string, had bool) {
	switch has := z.hasSigsLocked(name); {
	case has && !had:
		z.trackSetAdded(sigKey(name))
	case had && !has:
		z.trackSetRemoved(sigKey(name))
	}
}

// resignLocked replaces every signature over (name, t), filed or planned,
// with the plan p; a nil p only removes. z.mu must be held for writing,
// inside a mutation.
func (z *Zone) resignLocked(name string, t dnswire.Type, p *dnssec.PendingSig) {
	had := z.hasSigsLocked(name)
	k := sigKey(name)
	if set := z.sets[k]; len(set) > 0 {
		kept := set[:0]
		for _, rr := range set {
			if !coveredBy(rr, t) {
				kept = append(kept, rr)
			}
		}
		clear(set[len(kept):])
		if len(kept) == 0 {
			delete(z.sets, k)
		} else {
			z.sets[k] = kept
		}
	}
	plans := z.plans[name]
	switch i, planned := planIndex(plans, t); {
	case planned && p != nil:
		plans[i].pending = p
	case planned:
		z.unplanLocked(name, i)
	case p != nil:
		plans = append(plans, sigPlan{})
		copy(plans[i+1:], plans[i:])
		plans[i] = sigPlan{t, p}
		if z.plans == nil {
			z.plans = make(map[string][]sigPlan)
		}
		z.plans[name] = plans
	}
	z.trackSigsLocked(name, had)
}

// resign is resignLocked as one mutation of its own, with the event
// classified by the covered type: a signature over an NSEC chain link
// appears in denial proofs zone-wide.
func (z *Zone) resign(name string, t dnswire.Type, p *dnssec.PendingSig) {
	z.mu.Lock()
	if p == nil && !z.signedLocked(name, t) {
		z.mu.Unlock()
		return
	}
	z.resignLocked(name, t, p)
	ev := z.eventLocked(name, t, false)
	subs := z.subs
	z.mu.Unlock()
	notify(subs, ev)
}

// planZone installs the plans of one Sign over the whole zone as a single
// zone-wide mutation, and records the signer they were made under.
func (z *Zone) planZone(signer *Signer, plans []*dnssec.PendingSig) {
	z.mu.Lock()
	for _, p := range plans {
		z.resignLocked(p.Owner(), p.Covered(), p)
	}
	z.signer = signer
	subs := z.subs
	z.mu.Unlock()
	notify(subs, Event{Scope: ScopeZone})
}

// dropPlansLocked forgets every plan at name. z.mu must be held.
func (z *Zone) dropPlansLocked(name string) {
	had := z.hasSigsLocked(name)
	delete(z.plans, name)
	z.trackSigsLocked(name, had)
}

// produceLocked runs the private key for plan i at name and files the
// signature. A key that fails leaves the plan for the next reader. It
// reports whether the plan is gone. z.mu must be held for writing; this is
// not a mutation (see the top of the file).
func (z *Zone) produceLocked(name string, i int) bool {
	rr, err := z.plans[name][i].pending.Sign()
	if err != nil {
		return false
	}
	k := sigKey(name)
	z.sets[k] = insertSig(z.sets[k], rr)
	z.unplanLocked(name, i)
	return true
}

// produceNameLocked produces everything planned at name.
func (z *Zone) produceNameLocked(name string) {
	for i := 0; i < len(z.plans[name]); {
		if !z.produceLocked(name, i) {
			i++
		}
	}
}

// lockProduced locks the zone for a reader about to enumerate the RRSIGs at
// name — everywhere when all is set — having produced what was still planned
// there, and returns the matching unlock.
func (z *Zone) lockProduced(name string, all bool) (unlock func()) {
	z.mu.RLock()
	if all && len(z.plans) == 0 || !all && len(z.plans[name]) == 0 {
		return z.mu.RUnlock
	}
	z.mu.RUnlock()
	z.mu.Lock()
	if all {
		for name := range z.plans {
			z.produceNameLocked(name)
		}
	} else {
		z.produceNameLocked(name)
	}
	return z.mu.Unlock
}

// PlannedSigs returns how many signatures are planned and not yet produced.
func (z *Zone) PlannedSigs() int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	n := 0
	for _, plans := range z.plans {
		n += len(plans)
	}
	return n
}
