package dnsserver

import (
	"sort"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

// The reference renderer: answerInZone and its helpers as they stood before
// the zone view, moved here verbatim but for the ref prefix on their names,
// the two HasDenialChain guards, which only spared Names() its sort, and the
// DO gate on a CNAME answer's signatures, which both renderers gained. It
// reads the zone one locked call at a time — so it is no reference beside a
// concurrent writer — copies every RRset it touches, and sorts every owner
// name for each denial proof. TestAnswerMatchesReference and FuzzServeDNS
// hold Authoritative.ServeDNS and the wire path to it.

// ReferenceServeDNS is Authoritative.ServeDNS over the reference renderer.
func ReferenceServeDNS(a *Authoritative, q *dnswire.Message) *dnswire.Message {
	resp := q.Reply()
	if len(q.Questions) != 1 || q.OpCode != dnswire.OpCodeQuery {
		resp.RCode = dnswire.RCodeNotImplemented
		return resp
	}
	qname := dnswire.CanonicalName(q.Questions[0].Name)
	z := a.findZone(qname)
	if z == nil {
		resp.RCode = dnswire.RCodeRefused
		return resp
	}
	refAnswerInZone(resp, q, qname, z)
	return resp
}

// refAnswerInZone fills resp with the authoritative answer for q's single
// question out of zone z, per RFC 4035 section 3.
func refAnswerInZone(resp *dnswire.Message, q *dnswire.Message, qname string, z *zone.Zone) {
	question := q.Questions[0]
	dnssecOK := q.DNSSECOK()
	resp.Authoritative = true

	// Delegation handling: anything at or below a cut is referred, except a
	// DS query for the cut itself, which the parent answers authoritatively
	// (RFC 4035 section 3.1.4.1).
	if cut, nsSet := z.DelegationFor(qname); cut != "" {
		if qname == cut && question.Type == dnswire.TypeDS {
			if !refAnswerRRSet(resp, z, qname, dnswire.TypeDS, dnssecOK) {
				refAttachSOA(resp, z, dnssecOK)
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
			refAppendSigs(z, cut, dnswire.TypeDS, &resp.Authority)
			if len(z.Lookup(cut, dnswire.TypeDS)) == 0 {
				// Prove the delegation is insecure: NSEC at the cut, or
				// the NSEC3 matching its hash.
				if params := refNsec3Params(z); params != nil {
					refAttachNSEC3ForName(resp, z, params, cut)
				} else {
					for _, nsec := range z.Lookup(cut, dnswire.TypeNSEC) {
						resp.Authority = append(resp.Authority, nsec)
					}
					refAppendSigs(z, cut, dnswire.TypeNSEC, &resp.Authority)
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

	if !refHasName(z, qname) {
		resp.RCode = dnswire.RCodeNameError
		refAttachSOA(resp, z, dnssecOK)
		if dnssecOK {
			if params := refNsec3Params(z); params != nil {
				refAttachNSEC3Denial(resp, z, params, qname)
			} else {
				refAttachCoveringNSEC(resp, z, qname)
			}
		}
		return
	}

	// CNAME indirection (unless CNAME itself was asked for).
	if question.Type != dnswire.TypeCNAME && question.Type != dnswire.TypeANY {
		if cn := z.Lookup(qname, dnswire.TypeCNAME); len(cn) > 0 {
			resp.Answers = append(resp.Answers, cn...)
			if dnssecOK {
				refAppendSigs(z, qname, dnswire.TypeCNAME, &resp.Answers)
			}
			target := cn[0].Data.(*dnswire.CNAME).Target
			if dnswire.IsSubdomain(target, z.Origin) && refHasName(z, target) {
				for _, rr := range z.Lookup(target, question.Type) {
					resp.Answers = append(resp.Answers, rr)
				}
				if dnssecOK {
					refAppendSigs(z, target, question.Type, &resp.Answers)
				}
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
			refAttachSOA(resp, z, dnssecOK)
		}
		return
	}

	if !refAnswerRRSet(resp, z, qname, question.Type, dnssecOK) {
		// NODATA: name exists but not this type.
		refAttachSOA(resp, z, dnssecOK)
		if dnssecOK {
			if params := refNsec3Params(z); params != nil {
				refAttachNSEC3ForName(resp, z, params, qname)
			} else {
				for _, nsec := range z.Lookup(qname, dnswire.TypeNSEC) {
					resp.Authority = append(resp.Authority, nsec)
				}
				refAppendSigs(z, qname, dnswire.TypeNSEC, &resp.Authority)
			}
		}
	}
}

// refAnswerRRSet copies the RRset (and signatures when dnssecOK) into the
// answer section; it reports whether any records were found.
func refAnswerRRSet(resp *dnswire.Message, z *zone.Zone, name string, t dnswire.Type, dnssecOK bool) bool {
	rrs := z.Lookup(name, t)
	if len(rrs) == 0 {
		return false
	}
	resp.Answers = append(resp.Answers, rrs...)
	if dnssecOK {
		refAppendSigs(z, name, t, &resp.Answers)
	}
	return true
}

// refAttachSOA places the zone SOA in the authority section for negative
// responses, with its signature under DO.
func refAttachSOA(resp *dnswire.Message, z *zone.Zone, dnssecOK bool) {
	if soa := z.SOA(); soa != nil {
		resp.Authority = append(resp.Authority, soa)
		if dnssecOK {
			refAppendSigs(z, z.Origin, dnswire.TypeSOA, &resp.Authority)
		}
	}
}

// refNsec3Params returns the zone's NSEC3PARAM, or nil for NSEC/unsigned
// zones.
func refNsec3Params(z *zone.Zone) *dnswire.NSEC3PARAM {
	for _, rr := range z.Lookup(z.Origin, dnswire.TypeNSEC3PARAM) {
		return rr.Data.(*dnswire.NSEC3PARAM)
	}
	return nil
}

// refAttachNSEC3ForName appends the NSEC3 RRset (with signatures) whose owner
// name is the hash of name, and reports whether one was found.
func refAttachNSEC3ForName(resp *dnswire.Message, z *zone.Zone, params *dnswire.NSEC3PARAM, name string) bool {
	owner, err := dnssec.NSEC3OwnerName(name, z.Origin, params.Salt, params.Iterations)
	if err != nil {
		return false
	}
	rrs := z.Lookup(owner, dnswire.TypeNSEC3)
	if len(rrs) == 0 {
		return false
	}
	resp.Authority = append(resp.Authority, rrs...)
	refAppendSigs(z, owner, dnswire.TypeNSEC3, &resp.Authority)
	return true
}

// refAttachCoveringNSEC3 appends the NSEC3 whose hash span covers name's hash.
func refAttachCoveringNSEC3(resp *dnswire.Message, z *zone.Zone, params *dnswire.NSEC3PARAM, name string) {
	h, err := dnssec.NSEC3Hash(name, params.Salt, params.Iterations)
	if err != nil {
		return
	}
	for _, owner := range z.Names() {
		for _, rr := range z.Lookup(owner, dnswire.TypeNSEC3) {
			proof := &dnssec.NSEC3Proof{Owner: owner, NSEC3: rr.Data.(*dnswire.NSEC3)}
			if proof.Covers(h) {
				resp.Authority = append(resp.Authority, rr)
				refAppendSigs(z, owner, dnswire.TypeNSEC3, &resp.Authority)
				return
			}
		}
	}
}

// refAttachNSEC3Denial builds the RFC 5155 NXDOMAIN proof: the NSEC3 matching
// the closest encloser plus the NSEC3 covering the next-closer name.
func refAttachNSEC3Denial(resp *dnswire.Message, z *zone.Zone, params *dnswire.NSEC3PARAM, qname string) {
	ce := qname
	nextCloser := ""
	for {
		if refHasName(z, ce) || ce == z.Origin {
			break
		}
		nextCloser = ce
		parent, ok := dnswire.Parent(ce)
		if !ok || !dnswire.IsSubdomain(parent, z.Origin) {
			return
		}
		ce = parent
	}
	refAttachNSEC3ForName(resp, z, params, ce)
	if nextCloser != "" {
		refAttachCoveringNSEC3(resp, z, params, nextCloser)
	}
}

// refAttachCoveringNSEC adds the NSEC record proving qname's nonexistence
// (RFC 4035 section 3.1.3.2): the NSEC whose owner/next span covers qname
// in canonical order, plus its signature. Zones signed without an NSEC
// chain simply contribute nothing.
func refAttachCoveringNSEC(resp *dnswire.Message, z *zone.Zone, qname string) {
	for _, name := range z.Names() {
		for _, rr := range z.Lookup(name, dnswire.TypeNSEC) {
			nsec := rr.Data.(*dnswire.NSEC)
			if nsecCovers(name, nsec.NextName, qname) {
				resp.Authority = append(resp.Authority, rr)
				refAppendSigs(z, name, dnswire.TypeNSEC, &resp.Authority)
				return
			}
		}
	}
}

// refAppendSigs adds the RRSIGs covering (name, covered) to the given section.
// Reading them runs the key for a signature that was planned and not read
// yet, so a response costs the signatures it carries and no others.
func refAppendSigs(z *zone.Zone, name string, covered dnswire.Type, section *[]*dnswire.RR) {
	name = dnswire.CanonicalName(name)
	z.Read(nil, func(r *zone.Reader) { *section = r.AppendSigs(*section, name, covered) })
}

// refHasName reports whether any RRset is owned by name.
func refHasName(z *zone.Zone, name string) (has bool) {
	name = dnswire.CanonicalName(name)
	z.Read(nil, func(r *zone.Reader) { has = r.HasName(name) })
	return has
}
