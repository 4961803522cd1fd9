// Package resolver implements an iterative DNS resolver that walks
// referrals from the root, with optional DNSSEC validation on top of
// package dnssec.
//
// The resolver is transport-agnostic: it issues queries through an
// exchange.Exchanger (see internal/exchange), so the same code resolves
// against real UDP/TCP servers and against the in-memory ecosystem
// simulation. This mirrors how the paper's measurements work —
// the OpenINTEL scans and the hands-on registrar probes both observe
// domains strictly through DNS queries.
package resolver

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
)

// Errors returned by resolution.
var (
	ErrNoServers     = errors.New("resolver: no servers configured")
	ErrReferralLoop  = errors.New("resolver: too many referrals")
	ErrLame          = errors.New("resolver: lame delegation")
	ErrAllServersBad = errors.New("resolver: all servers failed")
)

// Config configures a Resolver.
type Config struct {
	// Roots are the addresses of the root nameservers.
	Roots []string
	// Exchange issues individual queries (the transport).
	Exchange exchange.Exchanger
	// DNSSEC sets the DO bit on queries so responses carry RRSIGs.
	DNSSEC bool
}

// maxReferrals bounds the referral chase.
const maxReferrals = 16

// Result is the outcome of an iterative resolution.
type Result struct {
	// RCode of the final authoritative response.
	RCode dnswire.RCode
	// Answers holds the answer-section records (RRSIGs included).
	Answers []*dnswire.RR
	// Authority holds the authority-section records of the final response.
	Authority []*dnswire.RR
	// Cuts lists the zone apexes traversed, root first.
	Cuts []string
	// Server is the address that gave the final answer.
	Server string
}

// RRSet extracts the records of type t owned by name from the answers,
// together with the RRSIGs covering them.
func (r *Result) RRSet(name string, t dnswire.Type) *dnssec.RRSet {
	return dnssec.ExtractRRSet(r.Answers, name, t)
}

// Resolver iteratively resolves names starting from the root servers.
type Resolver struct {
	cfg Config

	mu    sync.RWMutex
	cache map[string]cacheEntry // zone apex -> servers + cut chain

	queries atomic.Int64
	id      atomic.Uint32
}

// New creates a resolver from cfg.
func New(cfg Config) *Resolver {
	return &Resolver{cfg: cfg, cache: make(map[string]cacheEntry)}
}

// cacheEntry remembers a zone cut's nameserver addresses and the chain of
// cuts from the root down to it (inclusive), so cache hits can reconstruct
// the Cuts list without re-walking the hierarchy.
type cacheEntry struct {
	servers []string
	cuts    []string
}

func (r *Resolver) cachedServers(cut string) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.cache[cut].servers
}

func (r *Resolver) storeServers(cut string, servers, cuts []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache[cut] = cacheEntry{servers: servers, cuts: append([]string(nil), cuts...)}
}

// newQuery builds a query with a fresh ID and the configured EDNS options.
func (r *Resolver) newQuery(name string, t dnswire.Type) *dnswire.Message {
	q := dnswire.NewQuery(uint16(r.id.Add(1)), name, t)
	if r.cfg.DNSSEC {
		q.SetEDNS(4096, true)
	}
	return q
}

// exchangeAny tries servers in the order they are listed until one gives
// a usable answer: a transport error or lame rcode (SERVFAIL/REFUSED)
// moves on to the next server rather than failing the referral chase.
// There is no retry here — a caller on a lossy transport hands in an
// Exchange that retries.
func (r *Resolver) exchangeAny(ctx context.Context, servers []string, q *dnswire.Message) (*dnswire.Message, string, error) {
	if len(servers) == 0 || r.cfg.Exchange == nil {
		return nil, "", ErrNoServers
	}
	var lastErr error = ErrAllServersBad
	for _, server := range servers {
		r.queries.Add(1)
		resp, err := r.cfg.Exchange.Exchange(ctx, server, q)
		if err != nil {
			lastErr = err
			continue
		}
		if resp.RCode == dnswire.RCodeServerFailure || resp.RCode == dnswire.RCodeRefused {
			lastErr = fmt.Errorf("%w: %s from %s", ErrLame, resp.RCode, server)
			continue
		}
		return resp, server, nil
	}
	return nil, "", lastErr
}

// Resolve iteratively resolves (name, t) from the root.
func (r *Resolver) Resolve(ctx context.Context, name string, t dnswire.Type) (*Result, error) {
	name = dnswire.CanonicalName(name)
	servers := r.cfg.Roots
	cuts := []string{""}
	zone := ""
	// Start from the deepest ancestor cut already in the referral cache;
	// everything above it is reconstructed into Cuts without re-querying.
	// DS RRsets live in the parent zone, so a DS query must not start at
	// the cut bearing the name itself — the child would answer NODATA.
	cacheFrom := name
	if t == dnswire.TypeDS {
		cacheFrom, _ = dnswire.Parent(name)
	}
	if start, cached, ancestors := r.deepestCached(cacheFrom); cached != nil {
		zone, servers = start, cached
		cuts = ancestors
	}
	for hop := 0; hop < maxReferrals; hop++ {
		resp, server, err := r.exchangeAny(ctx, servers, r.newQuery(name, t))
		if err != nil {
			return nil, fmt.Errorf("resolving %s/%v in zone %q: %w", name, t, zone, err)
		}
		if resp.Authoritative {
			return &Result{
				RCode:     resp.RCode,
				Answers:   resp.Answers,
				Authority: resp.Authority,
				Cuts:      cuts,
				Server:    server,
			}, nil
		}
		// Referral: find the NS set for the deepest cut offered.
		cut, nsHosts, glue := referralInfo(resp, name)
		if cut == "" || !deeper(cut, zone) {
			return nil, fmt.Errorf("%w: zone %q gave no usable referral for %s", ErrLame, zone, name)
		}
		zone = cut
		cuts = append(cuts, cut)
		servers = r.serversFor(cut, nsHosts, glue, cuts)
	}
	return nil, ErrReferralLoop
}

// deepestCached finds the deepest ancestor zone of name whose nameserver
// addresses are cached. It returns that zone, its servers, and the cut list
// from the root down to it (inclusive).
func (r *Resolver) deepestCached(name string) (string, []string, []string) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	// Walk ancestors deepest-first: name, parent(name), ..., down to the
	// first label; the root is always resolvable from Roots directly.
	for cur := name; cur != ""; {
		if e, ok := r.cache[cur]; ok {
			return cur, e.servers, append([]string(nil), e.cuts...)
		}
		cur, _ = dnswire.Parent(cur)
	}
	return "", nil, nil
}

// serversFor resolves the addresses of a cut's nameservers, consulting the
// cache and glue; a nameserver without glue is addressed by its hostname,
// which is what the in-memory simulation registers handlers under.
// cutChain is the root-to-cut chain recorded alongside the cache entry.
func (r *Resolver) serversFor(cut string, nsHosts []string, glue map[string][]string, cutChain []string) []string {
	if cached := r.cachedServers(cut); cached != nil {
		return cached
	}
	var servers []string
	for _, host := range nsHosts {
		if addrs := glue[host]; len(addrs) > 0 {
			servers = append(servers, addrs...)
		} else {
			servers = append(servers, host)
		}
	}
	r.storeServers(cut, servers, cutChain)
	return servers
}

// referralInfo extracts the deepest delegation present in a referral
// response: the cut name, its NS hostnames, and any glue addresses.
func referralInfo(resp *dnswire.Message, qname string) (cut string, hosts []string, glue map[string][]string) {
	for _, rr := range resp.Authority {
		if rr.Type != dnswire.TypeNS {
			continue
		}
		if !dnswire.IsSubdomain(qname, rr.Name) {
			continue
		}
		if len(rr.Name) > len(cut) || cut == "" {
			if rr.Name != cut {
				hosts = nil
			}
			cut = rr.Name
		}
		if rr.Name == cut {
			hosts = append(hosts, rr.Data.(*dnswire.NS).Host)
		}
	}
	glue = make(map[string][]string)
	for _, rr := range resp.Additional {
		switch d := rr.Data.(type) {
		case *dnswire.A:
			glue[rr.Name] = append(glue[rr.Name], d.Addr.String())
		case *dnswire.AAAA:
			glue[rr.Name] = append(glue[rr.Name], d.Addr.String())
		}
	}
	return cut, hosts, glue
}

// deeper reports whether cut is strictly below zone.
func deeper(cut, zone string) bool {
	return dnswire.IsSubdomain(cut, zone) && cut != zone
}
