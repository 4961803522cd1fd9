package tldsim

import (
	"bytes"
	"crypto/ed25519"
	crand "crypto/rand"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

// Materialized is a day of the simulated world turned into real, signed DNS
// served on an in-memory network: a root zone, one signed TLD zone per TLD
// with genuine NS/DS delegations, and one authoritative server per DNS
// operator with genuinely signed (or unsigned, or mismatched) child zones.
//
// The scan engine runs against this exactly as it would against production
// servers, which lets tests verify that the world model's aggregate counts
// equal what live measurement observes.
type Materialized struct {
	*ecosystem.Tree
	TLDServers map[string]string
	Day        simtime.Day
}

// Materialize builds real DNS state for the given domains as of day.
//
// It builds now what the parent zones publish: the signed root and TLD
// zones (ecosystem.NewTree, TLDs in first-appearance order), and per domain
// the delegation NS and, when the domain has a DS on the day, the DS RRset
// and the TLD's RRSIG over it. A child's KSK is
// generated now only when that DS must match it. The child zone itself is
// built the first time a query or Zone reaches its origin on the
// operator's server (dnsserver.Authoritative.AddZoneFunc), from random seeds
// drawn here, so the build cannot fail. A caller that asks only the
// registries, as a serving start does, pays for no child zone; a sweep pays
// for each child when it first asks it. Private-key operations per child
// at bring-up: two for a signed child whose DS matches (its KSK and the
// RRSIG(DS)), one for any other child with a DS, none without one.
//
// The per-domain work (the KSK and its digest, the RRSIG(DS), the seeds)
// runs on a GOMAXPROCS-sized worker pool; TLD zones and operator servers are
// then assembled serially, in input order, so what a zone contains and the
// order it was added in never depend on the worker count.
func Materialize(day simtime.Day, domains []DomainState) (*Materialized, error) {
	b := &dayBuilder{day: day, now: day.Time()}
	// The tree's TLDs, in first-appearance order. Every TLD's signer exists
	// before the workers start, so they only read the table.
	m := &Materialized{TLDServers: make(map[string]string), Day: day}
	var tlds []string
	for i := range domains {
		if tld := domains[i].TLD; m.TLDServers[tld] == "" {
			m.TLDServers[tld] = ecosystem.TLDServerAddr(tld)
			tlds = append(tlds, tld)
		}
	}
	tree, err := ecosystem.NewTree(b.now, tlds...)
	if err != nil {
		return nil, err
	}
	m.Tree = tree

	built := make([]builtDomain, len(domains))
	var (
		wg       sync.WaitGroup
		next     atomic.Int64
		firstErr atomic.Pointer[error]
	)
	for w := min(runtime.GOMAXPROCS(0), len(domains)); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for firstErr.Load() == nil {
				i := int(next.Add(1)) - 1
				if i >= len(domains) {
					return
				}
				d := &domains[i]
				var err error
				if built[i], err = b.buildDomain(i, d, tree.TLDs[d.TLD].Signer); err != nil {
					firstErr.CompareAndSwap(nil, &err)
				}
			}
		}()
	}
	wg.Wait()
	if err := firstErr.Load(); err != nil {
		return nil, *err
	}

	operatorSrvs := make(map[string]*dnsserver.Authoritative)
	for i := range domains {
		tz := tree.TLDs[domains[i].TLD].Zone
		for _, rr := range built[i].parent {
			tz.MustAdd(rr)
		}
		c := built[i].child
		srv, ok := operatorSrvs[c.nsHost]
		if !ok {
			srv = dnsserver.NewAuthoritative()
			operatorSrvs[c.nsHost] = srv
			m.Net.Register(c.nsHost, srv)
		}
		srv.AddZoneFunc(c.name, c.build)
	}
	return m, nil
}

// dayBuilder holds what every zone of one materialized day shares.
type dayBuilder struct {
	day simtime.Day
	now time.Time
}

// builtDomain is one domain's share of a materialized day: its zone, to be
// built at first query, and the records its TLD's zone gains now — the
// delegation NS, then the DS RRset and its RRSIG when the domain has a DS on
// the day.
type builtDomain struct {
	child  *childZone
	parent []*dnswire.RR
}

// buildDomain does everything for domain i that touches no shared state; it
// is safe to call from several goroutines. tsigner signs for d's TLD.
func (b *dayBuilder) buildDomain(i int, d *DomainState, tsigner *zone.Signer) (builtDomain, error) {
	c := &childZone{now: b.now, name: d.Name, nsHost: nsFor(d.Operator), signed: d.KeyDay <= b.day, expired: d.ExpiredSig}
	out := builtDomain{
		child:  c,
		parent: []*dnswire.RR{dnswire.NewRR(d.Name, 86400, &dnswire.NS{Host: c.nsHost})},
	}
	if d.DSDay <= b.day {
		var ds *dnswire.DS
		if d.BrokenDS || !c.signed {
			// A DS that matches nothing served: either the registrar
			// accepted garbage, or the zone was unsigned behind it.
			digest := make([]byte, 32)
			rand.New(newStream(int64(i))).Read(digest)
			ds = &dnswire.DS{
				KeyTag: uint16(i + 1), Algorithm: dnswire.AlgED25519,
				DigestType: dnswire.DigestSHA256, Digest: digest,
			}
		} else {
			// The DS digests the child's KSK, so that key exists now.
			var err error
			if c.ksk, err = dnssec.GenerateKeyPair(dnswire.AlgED25519, dnswire.FlagsKSK, nil); err != nil {
				return builtDomain{}, err
			}
			if ds, err = dnssec.ComputeDS(d.Name, c.ksk.DNSKEY(), dnswire.DigestSHA256); err != nil {
				return builtDomain{}, err
			}
		}
		out.parent = append(out.parent, dnswire.NewRR(d.Name, 86400, ds))
		sig, err := tsigner.SignRRSet(d.TLD, out.parent[1:])
		if err != nil {
			return builtDomain{}, err
		}
		out.parent = append(out.parent, sig)
	}
	if c.signed {
		n := ed25519.SeedSize // the ZSK's seed
		if c.ksk == nil {
			n *= 2 // and the KSK's
		}
		if _, err := crand.Read(c.seeds[:n]); err != nil {
			return builtDomain{}, err
		}
	}
	return out, nil
}

// childZone is one domain's zone before its first query: everything its
// build needs, every random draw included, so the build cannot fail.
type childZone struct {
	now          time.Time // the measurement day's
	name, nsHost string
	// signed: the zone is signed on the day; expired: its signatures lapsed.
	signed, expired bool
	// ksk is generated at bring-up when the published DS digests it; the
	// build generates the other keys from seeds: the ZSK's, then the KSK's.
	ksk   *dnssec.KeyPair
	seeds [2 * ed25519.SeedSize]byte
}

// build builds the zone, signed with keys from the seeds drawn at bring-up.
// dnsserver.Authoritative runs it once, at the first query for the origin.
func (c *childZone) build() *zone.Zone {
	z := zone.New(c.name)
	z.MustAdd(dnswire.NewRR(c.name, 3600, &dnswire.SOA{
		MName: c.nsHost, RName: "hostmaster." + c.name,
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	z.MustAdd(dnswire.NewRR(c.name, 3600, &dnswire.NS{Host: c.nsHost}))
	z.MustAdd(dnswire.NewRR("www."+c.name, 300, &dnswire.A{Addr: netip.MustParseAddr("203.0.113.80")}))
	if c.signed {
		s := &zone.Signer{
			KSK: c.ksk, ZSK: c.seededKey(dnswire.FlagsZSK, c.seeds[:ed25519.SeedSize]),
			Inception: c.now.Add(-time.Hour), Expiration: c.now.AddDate(2, 0, 0),
		}
		if s.KSK == nil {
			s.KSK = c.seededKey(dnswire.FlagsKSK, c.seeds[ed25519.SeedSize:])
		}
		if c.expired {
			// The operator let its signatures lapse: the served RRSIGs
			// ended a month before the measurement day.
			s.Inception, s.Expiration = c.now.AddDate(0, -3, 0), c.now.AddDate(0, -1, 0)
		}
		// Planning fails only for a missing key or an algorithm that
		// cannot sign.
		if err := s.Sign(z); err != nil {
			panic(fmt.Sprintf("tldsim: planning the signatures of %s: %v", c.name, err))
		}
	}
	return z
}

// seededKey generates the Ed25519 key with the given DNSKEY flags from the
// seed drawn for it: all the randomness an Ed25519 key reads.
func (c *childZone) seededKey(flags uint16, seed []byte) *dnssec.KeyPair {
	k, err := dnssec.GenerateKeyPair(dnswire.AlgED25519, flags, bytes.NewReader(seed))
	if err != nil {
		panic(fmt.Sprintf("tldsim: a key for %s from its seed: %v", c.name, err))
	}
	return k
}

// Sample materializes n deterministically (seeded) sampled domains as a
// slice. It is the test/ablation form: at population scale the slice
// itself is the memory problem, so production sweeps hold the cursor from
// SampleSource instead and never materialize the draw.
func (w *World) Sample(n int, seed int64) []DomainState {
	return Domains(w.SampleSource(n, seed))
}

// BuildAgents constructs live registrar agents for the whole catalogue on
// top of an existing registry substrate, wiring reseller partnerships. It
// returns the agents keyed by policy ID together with the probe-ordered
// lists for Tables 2 and 3.
func BuildAgents(registries map[string]*registry.Registry, net *dnsserver.MemNet, clock func() simtime.Day) (byID map[string]*registrar.Registrar, top20, top10 []*registrar.Registrar, err error) {
	specs := RegistrarSpecs()
	byID = make(map[string]*registrar.Registrar, len(specs))
	for _, spec := range specs {
		p := spec.Policy
		// Only wire roles for TLDs the substrate actually has.
		roles := make(map[string]registrar.Role, len(p.Roles))
		for tld, role := range p.Roles {
			if role.Kind == registrar.RoleRegistrar {
				if _, ok := registries[tld]; !ok {
					continue
				}
			}
			roles[tld] = role
		}
		p.Roles = roles
		agent, aerr := registrar.New(p, registrar.Deps{
			Registries: registries,
			Net:        net,
			Clock:      clock,
			Rng:        rand.New(rand.NewSource(int64(len(p.ID)) * 2654435761)),
		})
		if aerr != nil {
			return nil, nil, nil, fmt.Errorf("tldsim: building %s: %w", p.Name, aerr)
		}
		byID[p.ID] = agent
	}
	// Partner wiring pass.
	for _, spec := range specs {
		agent := byID[spec.Policy.ID]
		for tld, role := range spec.Policy.Roles {
			if role.Kind == registrar.RoleReseller {
				partner, ok := byID[role.Partner]
				if !ok {
					return nil, nil, nil, fmt.Errorf("tldsim: %s names unknown partner %s", spec.Policy.ID, role.Partner)
				}
				agent.SetPartner(tld, partner)
			}
		}
	}
	for _, spec := range specs {
		if spec.Top20 {
			top20 = append(top20, byID[spec.Policy.ID])
		}
		if spec.Top10DNSSEC {
			top10 = append(top10, byID[spec.Policy.ID])
		}
	}
	return byID, top20, top10, nil
}
