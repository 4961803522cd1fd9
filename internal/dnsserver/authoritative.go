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
// about 1% of the render it precedes. An origin may also be deferred
// (AddZoneFunc): its zone is built, and installed like any other, the
// first time the host reaches it.
//
// With a cache, installing a zone subscribes the cache to the zone's
// mutation events before the zone becomes visible to queries, so every
// response the cache ever holds is covered by the invalidation stream.
// A zone-set change bumps the cache's stamps once it is visible, and
// pubGen catches the fill that chose its zone before the change but read
// its stamps after the bump: a fill racing AddZone/RemoveZone — or a
// deferred zone's build — can never strand a response rendered from the
// superseded zone set.
type Authoritative struct {
	mu    sync.RWMutex
	zones map[string]*zone.Zone
	// deferred holds the origins whose zone is not built yet; an origin is
	// in zones or in deferred, never in both.
	deferred map[string]*deferredZone
	// axfr gates zone transfers (nil denies all; see EnableAXFR).
	axfr AXFRAllowed

	// cache is nil on a host from NewAuthoritative. subscribed, the zones
	// whose events already reach the cache, exists only beside it.
	cache      *ResponseCache
	subscribed map[*zone.Zone]bool
	// pubGen counts zone-set changes. A fill reads it before findZone and
	// is not stored if it moved by the insert.
	pubGen atomic.Uint64
}

// NewAuthoritative creates an empty authoritative server with no response
// cache.
func NewAuthoritative() *Authoritative {
	return &Authoritative{zones: make(map[string]*zone.Zone)}
}

// Sharded is the name the benchmark uses for an Authoritative that carries
// a response cache.
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

// deferredZone is an origin whose zone is built at first use.
type deferredZone struct {
	once  sync.Once
	build func() *zone.Zone
	z     *zone.Zone
}

// AddZone installs (or replaces) a zone.
func (a *Authoritative) AddZone(z *zone.Zone) { a.setZone(z.Origin, z, nil, nil) }

// AddZoneFunc installs (or replaces) the zone at origin without building
// it: build runs once, the first time a query or Zone reaches origin, and
// the zone it returns is installed as AddZone would install it. Until then
// the origin is hosted, and RemoveZone or AddZone drop or replace it
// unbuilt. build runs outside the host's lock, so origins build
// concurrently; it must return a zone rooted at origin and must not call
// back into the host.
func (a *Authoritative) AddZoneFunc(origin string, build func() *zone.Zone) {
	a.setZone(dnswire.CanonicalName(origin), nil, &deferredZone{build: build}, nil)
}

// RemoveZone drops the zone rooted at origin, built or not.
func (a *Authoritative) RemoveZone(origin string) {
	a.setZone(dnswire.CanonicalName(origin), nil, nil, nil)
}

// setZone changes what the host serves at origin: z, or the zone d builds
// at first use, or nothing when both are nil. from is set when z is the
// zone from built: the install is skipped unless from still holds origin.
// The cache is subscribed to z before z is visible, and the stamps of
// origin's subtree are bumped after: an enclosing zone may have answered
// below its cut before the child zone arrived, and a removed zone's
// renderings are all stale.
func (a *Authoritative) setZone(origin string, z *zone.Zone, d, from *deferredZone) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if from != nil && a.deferred[origin] != from {
		return
	}
	if z != nil && a.cache != nil && !a.subscribed[z] {
		a.subscribed[z] = true
		z.OnEvent(func(ev zone.Event) { a.cache.applyEvent(origin, ev) })
	}
	a.pubGen.Add(1)
	if z != nil {
		a.zones[origin] = z
	} else {
		delete(a.zones, origin)
	}
	if d == nil {
		delete(a.deferred, origin)
	} else if a.deferred == nil {
		a.deferred = map[string]*deferredZone{origin: d}
	} else {
		a.deferred[origin] = d
	}
	if a.cache != nil {
		a.cache.zoneMoved(origin)
	}
}

// built returns d's zone, building it first if no reader has: one build
// however many readers arrive at once, installed in d's place unless d was
// replaced or removed meanwhile — then the zone answers only the readers
// that reached d before that.
func (a *Authoritative) built(origin string, d *deferredZone) *zone.Zone {
	d.once.Do(func() {
		d.z, d.build = d.build(), nil
		a.setZone(origin, d.z, nil, d)
	})
	return d.z
}

// Zone returns the hosted zone with the given origin, or nil. A deferred
// origin's zone is built.
func (a *Authoritative) Zone(origin string) *zone.Zone {
	origin = dnswire.CanonicalName(origin)
	a.mu.RLock()
	z, d := a.zones[origin], a.deferred[origin]
	a.mu.RUnlock()
	if d != nil {
		return a.built(origin, d)
	}
	return z
}

// DeferredCount returns how many hosted origins are not built yet.
func (a *Authoritative) DeferredCount() int {
	a.mu.RLock()
	defer a.mu.RUnlock()
	return len(a.deferred)
}

// CacheStats snapshots the response-cache counters (zero without a cache).
func (a *Authoritative) CacheStats() CacheStats {
	if a.cache == nil {
		return CacheStats{}
	}
	return a.cache.Stats()
}

// findZone returns the most specific zone containing qname, building it if
// its origin is deferred.
func (a *Authoritative) findZone(qname string) *zone.Zone {
	origin, z, d := a.lookup(qname)
	if d != nil {
		return a.built(origin, d)
	}
	return z
}

// lookup finds the most specific origin containing qname and what the host
// holds there: its zone, or its deferred build.
func (a *Authoritative) lookup(qname string) (string, *zone.Zone, *deferredZone) {
	a.mu.RLock()
	defer a.mu.RUnlock()
	cur := qname
	for {
		if z, ok := a.zones[cur]; ok {
			return cur, z, nil
		}
		if d, ok := a.deferred[cur]; ok {
			return cur, nil, d
		}
		p, ok := dnswire.Parent(cur)
		if !ok {
			return "", nil, nil
		}
		cur = p
	}
}

// ServeDNS implements Handler.
func (a *Authoritative) ServeDNS(q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	if len(q.Questions) != 1 || q.OpCode != dnswire.OpCodeQuery {
		resp.RCode = dnswire.RCodeNotImplemented
		return resp
	}
	question := q.Questions[0]
	a.answer(resp, nil, dnswire.CanonicalName(question.Name), question.Type, q.DNSSECOK())
	return resp
}

// answer renders the response to (qname, qtype) into resp, which arrives as
// the skeleton of one: header, question and — for an EDNS query — the
// responder's OPT. z is the zone the answer came from — nil for REFUSED,
// which no zone event could ever invalidate — and, on a host with a cache,
// p the stamps the answer depends on, read before rendering for the fill.
// r is the caller's reader to reuse, or nil.
func (a *Authoritative) answer(resp *dnswire.Message, r *zone.Reader, qname string, qtype dnswire.Type, dnssecOK bool) (z *zone.Zone, p pin) {
	if z = a.findZone(qname); z == nil {
		resp.RCode = dnswire.RCodeRefused
		return nil, p
	}
	if a.cache != nil {
		p = a.cache.pin(z.Origin, qname)
	}
	skeleton := len(resp.Additional)
	z.Read(r, func(r *zone.Reader) {
		// A pass over the zone may be run again: each starts from the skeleton.
		resp.RCode, resp.Authoritative = dnswire.RCodeSuccess, true
		resp.Answers, resp.Authority, resp.Additional = resp.Answers[:0], resp.Authority[:0], resp.Additional[:skeleton]
		answerInZone(resp, r, qname, qtype, dnssecOK)
	})
	return z, p
}

// answerInZone fills resp with the authoritative answer for (qname, qtype)
// out of the zone r reads, per RFC 4035 section 3. Everything it reads it
// reads through r, so the answer is one state of the zone and never parts of
// two.
func answerInZone(resp *dnswire.Message, r *zone.Reader, qname string, qtype dnswire.Type, dnssecOK bool) {
	// Delegation handling: anything at or below a cut is referred, except a
	// DS query for the cut itself, which the parent answers authoritatively
	// (RFC 4035 section 3.1.4.1).
	if cut, nsSet := r.Delegation(qname); cut != "" {
		if qname == cut && qtype == dnswire.TypeDS {
			if !attach(r, &resp.Answers, qname, dnswire.TypeDS, dnssecOK) {
				attachSOA(resp, r, dnssecOK)
			}
			return
		}
		resp.Authoritative = false
		resp.Authority = append(resp.Authority, nsSet...)
		if dnssecOK {
			// DS (or proof of its absence) travels with the referral.
			secure := attach(r, &resp.Authority, cut, dnswire.TypeDS, false)
			resp.Authority = r.AppendSigs(resp.Authority, cut, dnswire.TypeDS)
			if !secure {
				attachTypeDenial(resp, r, cut)
			}
		}
		// Glue for in-bailiwick nameservers.
		for _, ns := range nsSet {
			if host := ns.Data.(*dnswire.NS).Host; dnswire.IsSubdomain(host, cut) {
				host = dnswire.CanonicalName(host)
				resp.Additional = append(resp.Additional, r.RRSet(host, dnswire.TypeA)...)
				resp.Additional = append(resp.Additional, r.RRSet(host, dnswire.TypeAAAA)...)
			}
		}
		return
	}

	if !r.HasName(qname) {
		resp.RCode = dnswire.RCodeNameError
		attachSOA(resp, r, dnssecOK)
		if dnssecOK {
			if params := nsec3Params(r); params != nil {
				attachNSEC3Denial(resp, r, params, qname)
			} else {
				attachCoveringNSEC(resp, r, qname)
			}
		}
		return
	}

	// CNAME indirection (unless CNAME itself was asked for), signed only
	// under DO, like every other answer (RFC 3225 section 3).
	if qtype != dnswire.TypeCNAME && qtype != dnswire.TypeANY {
		if cn := r.RRSet(qname, dnswire.TypeCNAME); len(cn) > 0 {
			resp.Answers = append(resp.Answers, cn...)
			if dnssecOK {
				resp.Answers = r.AppendSigs(resp.Answers, qname, dnswire.TypeCNAME)
			}
			target := cn[0].Data.(*dnswire.CNAME).Target
			if dnswire.IsSubdomain(target, r.Origin()) {
				if target = dnswire.CanonicalName(target); r.HasName(target) {
					attach(r, &resp.Answers, target, qtype, false)
					if dnssecOK {
						resp.Answers = r.AppendSigs(resp.Answers, target, qtype)
					}
				}
			}
			return
		}
	}

	if qtype == dnswire.TypeANY {
		// In ascending type order, so the response bytes are a pure function
		// of zone content — the wire cache's equivalence contract.
		if resp.Answers = r.AppendAll(resp.Answers, qname, dnssecOK); len(resp.Answers) == 0 {
			attachSOA(resp, r, dnssecOK)
		}
		return
	}

	if !attach(r, &resp.Answers, qname, qtype, dnssecOK) {
		// NODATA: name exists but not this type.
		attachSOA(resp, r, dnssecOK)
		if dnssecOK {
			attachTypeDenial(resp, r, qname)
		}
	}
}

// attach appends the RRset at (name, t), and with sigs its signatures, to
// the section; it reports whether there is such an RRset.
func attach(r *zone.Reader, section *[]*dnswire.RR, name string, t dnswire.Type, sigs bool) bool {
	rrs := r.RRSet(name, t)
	if len(rrs) == 0 {
		return false
	}
	*section = append(*section, rrs...)
	if sigs {
		*section = r.AppendSigs(*section, name, t)
	}
	return true
}

// attachSOA places the zone SOA in the authority section for negative
// responses, with its signature under DO.
func attachSOA(resp *dnswire.Message, r *zone.Reader, dnssecOK bool) {
	if soa := r.RRSet(r.Origin(), dnswire.TypeSOA); len(soa) > 0 {
		resp.Authority = append(resp.Authority, soa[0])
		if dnssecOK {
			resp.Authority = r.AppendSigs(resp.Authority, r.Origin(), dnswire.TypeSOA)
		}
	}
}

// attachTypeDenial proves that name, which exists, lacks the type asked for
// (or, at a cut, a DS): the NSEC3 matching its hash, or the NSEC it owns.
func attachTypeDenial(resp *dnswire.Message, r *zone.Reader, name string) {
	if params := nsec3Params(r); params != nil {
		attachNSEC3ForName(resp, r, params, name)
		return
	}
	attach(r, &resp.Authority, name, dnswire.TypeNSEC, false)
	resp.Authority = r.AppendSigs(resp.Authority, name, dnswire.TypeNSEC)
}

// nsec3Params returns the zone's NSEC3PARAM, or nil for NSEC/unsigned
// zones.
func nsec3Params(r *zone.Reader) *dnswire.NSEC3PARAM {
	for _, rr := range r.RRSet(r.Origin(), dnswire.TypeNSEC3PARAM) {
		return rr.Data.(*dnswire.NSEC3PARAM)
	}
	return nil
}

// attachNSEC3ForName appends the NSEC3 RRset (with signatures) whose owner
// name is the hash of name.
func attachNSEC3ForName(resp *dnswire.Message, r *zone.Reader, params *dnswire.NSEC3PARAM, name string) {
	if owner, err := dnssec.NSEC3OwnerName(name, r.Origin(), params.Salt, params.Iterations); err == nil {
		attach(r, &resp.Authority, owner, dnswire.TypeNSEC3, true)
	}
}

// attachNSEC3Denial builds the RFC 5155 NXDOMAIN proof: the NSEC3 matching
// the closest encloser plus the NSEC3 covering the next-closer name — the
// one whose owner precedes that name's hash in the chain.
func attachNSEC3Denial(resp *dnswire.Message, r *zone.Reader, params *dnswire.NSEC3PARAM, qname string) {
	ce := qname
	nextCloser := ""
	for !r.HasName(ce) && ce != r.Origin() {
		nextCloser = ce
		parent, ok := dnswire.Parent(ce)
		if !ok || !dnswire.IsSubdomain(parent, r.Origin()) {
			return
		}
		ce = parent
	}
	attachNSEC3ForName(resp, r, params, ce)
	if nextCloser == "" {
		return
	}
	h, err := dnssec.NSEC3Hash(nextCloser, params.Salt, params.Iterations)
	if err != nil {
		return
	}
	hashed := dnswire.Base32HexEncode(h)
	if r.Origin() != "" {
		hashed += "." + r.Origin()
	}
	owner := r.Before(dnswire.TypeNSEC3, hashed)
	for _, rr := range r.RRSet(owner, dnswire.TypeNSEC3) {
		proof := dnssec.NSEC3Proof{Owner: owner, NSEC3: rr.Data.(*dnswire.NSEC3)}
		if proof.Covers(h) {
			resp.Authority = append(resp.Authority, rr)
			resp.Authority = r.AppendSigs(resp.Authority, owner, dnswire.TypeNSEC3)
			return
		}
	}
}

// attachCoveringNSEC adds the NSEC record proving qname's nonexistence
// (RFC 4035 section 3.1.3.2): the NSEC whose owner/next span covers qname
// in canonical order — its owner is the one that precedes qname — plus its
// signature. Zones signed without an NSEC chain simply contribute nothing.
func attachCoveringNSEC(resp *dnswire.Message, r *zone.Reader, qname string) {
	owner := r.Before(dnswire.TypeNSEC, qname)
	for _, rr := range r.RRSet(owner, dnswire.TypeNSEC) {
		if nsecCovers(owner, rr.Data.(*dnswire.NSEC).NextName, qname) {
			resp.Authority = append(resp.Authority, rr)
			resp.Authority = r.AppendSigs(resp.Authority, owner, dnswire.TypeNSEC)
			return
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
