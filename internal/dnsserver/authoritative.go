// Package dnsserver implements an authoritative DNS server for the zones of
// package zone, DNSSEC-aware per RFC 4035 section 3: it includes RRSIGs
// when the DO bit is set, serves referrals with DS records at delegation
// cuts, sets the AA bit, and truncates UDP responses that exceed the
// client's advertised payload size.
//
// Two transports are provided: real UDP/TCP listeners (Server) for
// wire-level integration, and an in-memory network (MemNet) that lets the
// simulation host tens of thousands of "servers" without sockets.
package dnsserver

import (
	"sort"
	"sync"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// Handler answers DNS queries. Implementations must be safe for concurrent
// use.
type Handler interface {
	ServeDNS(q *dnswire.Message) *dnswire.Message
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(q *dnswire.Message) *dnswire.Message

// ServeDNS implements Handler.
func (f HandlerFunc) ServeDNS(q *dnswire.Message) *dnswire.Message { return f(q) }

// Authoritative hosts one or more zones: every registry, registrar and
// operator server of the simulation, and — when NewSharded built it with a
// ResponseCache — the handler the serving daemons put behind real sockets.
//
// The zone set is one map under an RWMutex: an operator's host takes
// thousands of child zones in one Materialize, so a write must stay O(1);
// cache hits never read the map, and the uncontended RLock of a miss is
// about 1% of the render it precedes.
//
// With a cache, installing a zone subscribes the cache to the zone's
// mutation events before the zone becomes visible to queries, so every
// response the cache ever holds is covered by the invalidation stream.
// Zone-set changes themselves are guarded by a publish seqlock (pubGen):
// fills pin it alongside the zone generation, so a fill racing
// AddZone/RemoveZone can never strand a response rendered from the
// superseded zone set.
type Authoritative struct {
	mu    sync.RWMutex
	zones map[string]*zone.Zone
	// axfr gates zone transfers (nil denies all; see EnableAXFR).
	axfr AXFRAllowed

	// cache is nil on a host from NewAuthoritative. subscribed, the zones
	// whose events already reach the cache, exists only beside it.
	cache      *ResponseCache
	subscribed map[*zone.Zone]bool
	// pubGen is odd while a zone-set publish (and its cache flush) is in
	// progress; fills pinned across a publish are rejected.
	pubGen atomic.Uint64
}

// NewAuthoritative creates an empty authoritative server with no response
// cache.
func NewAuthoritative() *Authoritative {
	return &Authoritative{zones: make(map[string]*zone.Zone)}
}

// Sharded is the name the serving daemons and the benchmark use for an
// Authoritative that carries a response cache.
type Sharded = Authoritative

// ShardedConfig sizes the response cache NewSharded builds.
type ShardedConfig struct {
	// CacheEntries bounds the response cache (0 = default 256k entries,
	// negative = no cache at all).
	CacheEntries int
}

// NewSharded creates an empty authoritative server with a response cache.
func NewSharded(cfg ShardedConfig) *Authoritative {
	a := NewAuthoritative()
	if cfg.CacheEntries >= 0 {
		a.cache = NewResponseCache(cfg.CacheEntries)
		a.subscribed = make(map[*zone.Zone]bool)
	}
	return a
}

// AddZone installs (or replaces) a zone.
func (a *Authoritative) AddZone(z *zone.Zone) { a.setZone(z.Origin, z) }

// RemoveZone drops the zone rooted at origin.
func (a *Authoritative) RemoveZone(origin string) { a.setZone(dnswire.CanonicalName(origin), nil) }

// setZone changes what the host serves at origin (nil removes it). The
// cache is subscribed to z before z is visible, and origin's subtree is
// flushed after: an enclosing zone may have answered below its cut before
// the child zone arrived, and a removed zone's renderings are all stale.
func (a *Authoritative) setZone(origin string, z *zone.Zone) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if z != nil && a.cache != nil && !a.subscribed[z] {
		a.subscribed[z] = true
		z.OnEvent(func(ev zone.Event) { a.cache.applyEvent(z, ev) })
	}
	a.pubGen.Add(1)
	if z == nil {
		delete(a.zones, origin)
	} else {
		a.zones[origin] = z
	}
	if a.cache != nil {
		a.cache.FlushSubtree(origin)
	}
	a.pubGen.Add(1)
}

// Zone returns the hosted zone with the given origin, or nil.
func (a *Authoritative) Zone(origin string) *zone.Zone {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return a.zones[dnswire.CanonicalName(origin)]
}

// ZoneCount returns the number of hosted zones.
func (a *Authoritative) ZoneCount() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.zones)
}

// CacheStats snapshots the response-cache counters (zero without a cache).
func (a *Authoritative) CacheStats() CacheStats {
	if a.cache == nil {
		return CacheStats{}
	}
	return a.cache.Stats()
}

// findZone returns the most specific zone containing qname.
func (a *Authoritative) findZone(qname string) *zone.Zone {
	a.mu.RLock()
	defer a.mu.RUnlock()
	cur := qname
	for {
		if z, ok := a.zones[cur]; ok {
			return z
		}
		p, ok := dnswire.Parent(cur)
		if !ok {
			return nil
		}
		cur = p
	}
}

// ServeDNS implements Handler.
func (a *Authoritative) ServeDNS(q *dnswire.Message) *dnswire.Message {
	resp, _, _ := a.answer(q)
	return resp
}

// answer renders the response to q. z is the zone it came from — nil for
// NOTIMP and REFUSED, which no zone event could ever invalidate — and zg
// that zone's generation, read before rendering for the cache fill to pin.
func (a *Authoritative) answer(q *dnswire.Message) (resp *dnswire.Message, z *zone.Zone, zg uint64) {
	resp = q.Reply()
	if len(q.Questions) != 1 || q.OpCode != dnswire.OpCodeQuery {
		resp.RCode = dnswire.RCodeNotImplemented
		return resp, nil, 0
	}
	qname := dnswire.CanonicalName(q.Questions[0].Name)
	if z = a.findZone(qname); z == nil {
		resp.RCode = dnswire.RCodeRefused
		return resp, nil, 0
	}
	zg = z.Generation()
	answerInZone(resp, q, qname, z)
	return resp, z, zg
}

// answerInZone fills resp with the authoritative answer for q's single
// question out of zone z, per RFC 4035 section 3.
func answerInZone(resp *dnswire.Message, q *dnswire.Message, qname string, z *zone.Zone) {
	question := q.Questions[0]
	dnssecOK := q.DNSSECOK()
	resp.Authoritative = true

	// Delegation handling: anything at or below a cut is referred, except a
	// DS query for the cut itself, which the parent answers authoritatively
	// (RFC 4035 section 3.1.4.1).
	if cut, nsSet := z.DelegationFor(qname); cut != "" {
		if qname == cut && question.Type == dnswire.TypeDS {
			if !answerRRSet(resp, z, qname, dnswire.TypeDS, dnssecOK) {
				attachSOA(resp, z, dnssecOK)
			}
			return
		}
		resp.Authoritative = false
		resp.Authority = append(resp.Authority, nsSet...)
		if dnssecOK {
			// DS (or proof of its absence) travels with the referral.
			for _, ds := range z.Lookup(cut, dnswire.TypeDS) {
				resp.Authority = append(resp.Authority, ds)
			}
			appendSigs(z, cut, dnswire.TypeDS, &resp.Authority)
			if len(z.Lookup(cut, dnswire.TypeDS)) == 0 {
				// Prove the delegation is insecure: NSEC at the cut, or
				// the NSEC3 matching its hash.
				if params := nsec3Params(z); params != nil {
					attachNSEC3ForName(resp, z, params, cut)
				} else {
					for _, nsec := range z.Lookup(cut, dnswire.TypeNSEC) {
						resp.Authority = append(resp.Authority, nsec)
					}
					appendSigs(z, cut, dnswire.TypeNSEC, &resp.Authority)
				}
			}
		}
		// Glue for in-bailiwick nameservers.
		for _, ns := range nsSet {
			host := ns.Data.(*dnswire.NS).Host
			if dnswire.IsSubdomain(host, cut) {
				resp.Additional = append(resp.Additional, z.Lookup(host, dnswire.TypeA)...)
				resp.Additional = append(resp.Additional, z.Lookup(host, dnswire.TypeAAAA)...)
			}
		}
		return
	}

	if !z.HasName(qname) {
		resp.RCode = dnswire.RCodeNameError
		attachSOA(resp, z, dnssecOK)
		if dnssecOK {
			if params := nsec3Params(z); params != nil {
				attachNSEC3Denial(resp, z, params, qname)
			} else {
				attachCoveringNSEC(resp, z, qname)
			}
		}
		return
	}

	// CNAME indirection (unless CNAME itself was asked for).
	if question.Type != dnswire.TypeCNAME && question.Type != dnswire.TypeANY {
		if cn := z.Lookup(qname, dnswire.TypeCNAME); len(cn) > 0 {
			resp.Answers = append(resp.Answers, cn...)
			appendSigs(z, qname, dnswire.TypeCNAME, &resp.Answers)
			target := cn[0].Data.(*dnswire.CNAME).Target
			if dnswire.IsSubdomain(target, z.Origin) && z.HasName(target) {
				for _, rr := range z.Lookup(target, question.Type) {
					resp.Answers = append(resp.Answers, rr)
				}
				appendSigs(z, target, question.Type, &resp.Answers)
			}
			return
		}
	}

	if question.Type == dnswire.TypeANY {
		// Render in ascending type order so the response bytes are a pure
		// function of zone content — the wire cache's equivalence contract.
		all := z.LookupAll(qname)
		types := make([]dnswire.Type, 0, len(all))
		for t := range all {
			if t == dnswire.TypeRRSIG && !dnssecOK {
				continue
			}
			types = append(types, t)
		}
		sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
		for _, t := range types {
			resp.Answers = append(resp.Answers, all[t]...)
		}
		if len(resp.Answers) == 0 {
			attachSOA(resp, z, dnssecOK)
		}
		return
	}

	if !answerRRSet(resp, z, qname, question.Type, dnssecOK) {
		// NODATA: name exists but not this type.
		attachSOA(resp, z, dnssecOK)
		if dnssecOK {
			if params := nsec3Params(z); params != nil {
				attachNSEC3ForName(resp, z, params, qname)
			} else {
				for _, nsec := range z.Lookup(qname, dnswire.TypeNSEC) {
					resp.Authority = append(resp.Authority, nsec)
				}
				appendSigs(z, qname, dnswire.TypeNSEC, &resp.Authority)
			}
		}
	}
}

// answerRRSet copies the RRset (and signatures when dnssecOK) into the
// answer section; it reports whether any records were found.
func answerRRSet(resp *dnswire.Message, z *zone.Zone, name string, t dnswire.Type, dnssecOK bool) bool {
	rrs := z.Lookup(name, t)
	if len(rrs) == 0 {
		return false
	}
	resp.Answers = append(resp.Answers, rrs...)
	if dnssecOK {
		appendSigs(z, name, t, &resp.Answers)
	}
	return true
}

// attachSOA places the zone SOA in the authority section for negative
// responses, with its signature under DO.
func attachSOA(resp *dnswire.Message, z *zone.Zone, dnssecOK bool) {
	if soa := z.SOA(); soa != nil {
		resp.Authority = append(resp.Authority, soa)
		if dnssecOK {
			appendSigs(z, z.Origin, dnswire.TypeSOA, &resp.Authority)
		}
	}
}

// nsec3Params returns the zone's NSEC3PARAM, or nil for NSEC/unsigned
// zones.
func nsec3Params(z *zone.Zone) *dnswire.NSEC3PARAM {
	for _, rr := range z.Lookup(z.Origin, dnswire.TypeNSEC3PARAM) {
		return rr.Data.(*dnswire.NSEC3PARAM)
	}
	return nil
}

// attachNSEC3ForName appends the NSEC3 RRset (with signatures) whose owner
// name is the hash of name, and reports whether one was found.
func attachNSEC3ForName(resp *dnswire.Message, z *zone.Zone, params *dnswire.NSEC3PARAM, name string) bool {
	owner, err := dnssec.NSEC3OwnerName(name, z.Origin, params.Salt, params.Iterations)
	if err != nil {
		return false
	}
	rrs := z.Lookup(owner, dnswire.TypeNSEC3)
	if len(rrs) == 0 {
		return false
	}
	resp.Authority = append(resp.Authority, rrs...)
	appendSigs(z, owner, dnswire.TypeNSEC3, &resp.Authority)
	return true
}

// attachCoveringNSEC3 appends the NSEC3 whose hash span covers name's hash.
func attachCoveringNSEC3(resp *dnswire.Message, z *zone.Zone, params *dnswire.NSEC3PARAM, name string) {
	if !z.HasDenialChain() {
		return
	}
	h, err := dnssec.NSEC3Hash(name, params.Salt, params.Iterations)
	if err != nil {
		return
	}
	for _, owner := range z.Names() {
		for _, rr := range z.Lookup(owner, dnswire.TypeNSEC3) {
			proof := &dnssec.NSEC3Proof{Owner: owner, NSEC3: rr.Data.(*dnswire.NSEC3)}
			if proof.Covers(h) {
				resp.Authority = append(resp.Authority, rr)
				appendSigs(z, owner, dnswire.TypeNSEC3, &resp.Authority)
				return
			}
		}
	}
}

// attachNSEC3Denial builds the RFC 5155 NXDOMAIN proof: the NSEC3 matching
// the closest encloser plus the NSEC3 covering the next-closer name.
func attachNSEC3Denial(resp *dnswire.Message, z *zone.Zone, params *dnswire.NSEC3PARAM, qname string) {
	ce := qname
	nextCloser := ""
	for {
		if z.HasName(ce) || ce == z.Origin {
			break
		}
		nextCloser = ce
		parent, ok := dnswire.Parent(ce)
		if !ok || !dnswire.IsSubdomain(parent, z.Origin) {
			return
		}
		ce = parent
	}
	attachNSEC3ForName(resp, z, params, ce)
	if nextCloser != "" {
		attachCoveringNSEC3(resp, z, params, nextCloser)
	}
}

// attachCoveringNSEC adds the NSEC record proving qname's nonexistence
// (RFC 4035 section 3.1.3.2): the NSEC whose owner/next span covers qname
// in canonical order, plus its signature. Zones signed without an NSEC
// chain simply contribute nothing.
func attachCoveringNSEC(resp *dnswire.Message, z *zone.Zone, qname string) {
	if !z.HasDenialChain() {
		return // nothing to find, and Names() sorts every owner
	}
	for _, name := range z.Names() {
		for _, rr := range z.Lookup(name, dnswire.TypeNSEC) {
			nsec := rr.Data.(*dnswire.NSEC)
			if nsecCovers(name, nsec.NextName, qname) {
				resp.Authority = append(resp.Authority, rr)
				appendSigs(z, name, dnswire.TypeNSEC, &resp.Authority)
				return
			}
		}
	}
}

// nsecCovers reports whether qname falls in the (owner, next) canonical
// interval of an NSEC record, handling the wrap-around at the end of the
// chain.
func nsecCovers(owner, next, qname string) bool {
	cmpOwner := dnswire.CompareCanonical(owner, qname)
	cmpNext := dnswire.CompareCanonical(qname, next)
	if dnswire.CompareCanonical(owner, next) < 0 {
		return cmpOwner < 0 && cmpNext < 0
	}
	// Last NSEC wraps to the apex: it covers everything after the owner.
	return cmpOwner < 0 || cmpNext < 0
}

// appendSigs adds the RRSIGs covering (name, covered) to the given section.
// Zone.Sigs runs the key for a signature that was planned and not read yet,
// so a response costs the signatures it carries and no others.
func appendSigs(z *zone.Zone, name string, covered dnswire.Type, section *[]*dnswire.RR) {
	*section = append(*section, z.Sigs(name, covered)...)
}
