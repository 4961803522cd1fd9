package ecosystem

import (
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/resolver"
)

// RootAddr is the root nameserver's name and its address on the in-memory
// network.
const RootAddr = "a.root-servers.net"

// TLDServerAddr returns the name and network address of a TLD's registry
// server ("ns1.<tld>-registry.example"). It depends on the TLD alone, so
// every chunk of a day, each of which builds its own tree, serves a TLD at
// the same address.
func TLDServerAddr(tld string) string { return "ns1." + tld + "-registry.example" }

// Tree is the top of a simulated DNS on a strict in-memory network: the
// signed root at RootAddr, delegating with NS and DS to a signed apex per
// TLD at TLDServerAddr, and the root's DS set a validating resolver trusts.
type Tree struct {
	Net    *dnsserver.MemNet
	Anchor []*dnswire.DS
	// TLDs holds each TLD's apex. A caller hangs its delegations in the
	// apex's zone and signs what it adds with the apex's signer.
	TLDs map[string]*registry.Apex
}

// NewTree builds the tree for tlds as of now, their bare apexes (SOA, NS
// and keys) in the order given, then the root: its SOA and NS, an NS and a
// DS RRset per TLD, signed, served at RootAddr and anchored. Signatures are
// valid as registry.NewApex has it.
func NewTree(now time.Time, tlds ...string) (*Tree, error) {
	t := &Tree{Net: dnsserver.NewMemNet(), TLDs: make(map[string]*registry.Apex, len(tlds))}
	var delegations []*dnswire.RR
	for _, tld := range tlds {
		apex, err := registry.NewApex(tld, TLDServerAddr(tld), now)
		if err != nil {
			return nil, err
		}
		t.TLDs[tld] = apex
		t.Net.Register(TLDServerAddr(tld), apex.Server)
		dss, err := apex.Signer.DSRecords(tld, dnswire.DigestSHA256)
		if err != nil {
			return nil, err
		}
		delegations = append(delegations, dnswire.NewRR(tld, 86400, &dnswire.NS{Host: TLDServerAddr(tld)}))
		for _, ds := range dss {
			delegations = append(delegations, dnswire.NewRR(tld, 86400, ds))
		}
	}
	root, err := registry.NewApex("", RootAddr, now, delegations...)
	if err != nil {
		return nil, err
	}
	t.Net.Register(RootAddr, root.Server)
	if t.Anchor, err = root.Signer.DSRecords("", dnswire.DigestSHA256); err != nil {
		return nil, err
	}
	return t, nil
}

// Resolver builds an iterative resolver that starts at the tree's root.
func (t *Tree) Resolver(dnssecOK bool) *resolver.Resolver {
	return resolver.New(resolver.Config{
		Roots:    []string{RootAddr},
		Exchange: t.Net,
		DNSSEC:   dnssecOK,
	})
}

// ValidatingAt builds a validating resolver over the tree, anchored at its
// root key, that judges signature validity at now().
func (t *Tree) ValidatingAt(now func() time.Time) *resolver.Validating {
	return &resolver.Validating{R: t.Resolver(true), Anchor: t.Anchor, Now: now}
}
