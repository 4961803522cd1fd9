package ecosystem_test

import (
	"context"
	"fmt"
	"sort"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// TestEveryBuilderBuildsOneTree builds the top of the DNS each way the
// module does — a materialized day, a registry ecosystem and a dnstest
// hierarchy — and holds each to the same tree: the root refers every TLD
// with an NS and a DS RRset naming its server by TLDServerAddr, every TLD's
// key set validates from the root's anchor, and each TLD server on the
// network is an Authoritative holding its TLD's zone.
func TestEveryBuilderBuildsOneTree(t *testing.T) {
	day := simtime.End
	domains := []tldsim.DomainState{
		{Name: "unsigned.com", TLD: "com", Operator: "op.example", KeyDay: simtime.Never, DSDay: simtime.Never},
		{Name: "signed.nl", TLD: "nl", Operator: "op.example", KeyDay: day - 10, DSDay: day - 5},
		{Name: "partial.se", TLD: "se", Operator: "other.example", KeyDay: day - 10, DSDay: simtime.Never},
		{Name: "signed.com", TLD: "com", Operator: "other.example", KeyDay: day - 10, DSDay: day - 5},
	}
	mat, err := tldsim.Materialize(day, domains)
	if err != nil {
		t.Fatal(err)
	}
	for _, tld := range []string{"com", "nl", "se"} {
		if got := mat.TLDServers[tld]; got != ecosystem.TLDServerAddr(tld) {
			t.Errorf("Materialize serves .%s at %q, want %q", tld, got, ecosystem.TLDServerAddr(tld))
		}
	}
	eco, err := ecosystem.New(ecosystem.Config{TLDs: []string{"com", "nl"}})
	if err != nil {
		t.Fatal(err)
	}
	h, err := dnstest.NewHierarchy(time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC), "com", "org")
	if err != nil {
		t.Fatal(err)
	}

	for _, c := range []struct {
		name string
		tree *ecosystem.Tree
		tlds []string
		now  time.Time
	}{
		{"Materialize", mat.Tree, []string{"com", "nl", "se"}, day.Time()},
		{"ecosystem.New", eco.Tree, []string{"com", "nl"}, eco.Clock.Day().Time()},
		{"dnstest.NewHierarchy", h.Tree, []string{"com", "org"}, h.Now},
	} {
		t.Run(c.name, func(t *testing.T) {
			var got []string
			for tld := range c.tree.TLDs {
				got = append(got, tld)
			}
			sort.Strings(got)
			if fmt.Sprint(got) != fmt.Sprint(c.tlds) {
				t.Fatalf("tree has TLDs %v, want %v", got, c.tlds)
			}
			if hosts := nsHosts(t, c.tree.Net, ecosystem.RootAddr, ""); len(hosts) != 1 || hosts[0] != ecosystem.RootAddr {
				t.Errorf("root NS = %v, want [%s]", hosts, ecosystem.RootAddr)
			}
			v := c.tree.ValidatingAt(func() time.Time { return c.now })
			for _, tld := range c.tlds {
				server := ecosystem.TLDServerAddr(tld)
				if hosts := nsHosts(t, c.tree.Net, ecosystem.RootAddr, tld); len(hosts) != 1 || hosts[0] != server {
					t.Errorf(".%s: root delegates to %v, want [%s]", tld, hosts, server)
				}
				ds := ask(t, c.tree.Net, ecosystem.RootAddr, tld, dnswire.TypeDS)
				if n := len(rrsOf(ds.Answers, tld, dnswire.TypeDS)); n != 1 {
					t.Errorf(".%s: root answers %d DS records, want 1", tld, n)
				}

				_, chain, err := v.Lookup(context.Background(), tld, dnswire.TypeDNSKEY)
				if err != nil {
					t.Fatal(err)
				}
				if chain.Status != dnssec.Secure {
					t.Errorf(".%s DNSKEY: %v (%s), want Secure", tld, chain.Status, chain.Reason)
				}

				auth, ok := c.tree.Net.Lookup(server).(*dnsserver.Authoritative)
				if !ok || auth.Zone(tld) == nil {
					t.Fatalf(".%s: no Authoritative holding the zone at %s", tld, server)
				}
				if apex := c.tree.TLDs[tld]; apex.Zone != auth.Zone(tld) || apex.Server != auth {
					t.Errorf(".%s: the server at %s is not the tree's apex", tld, server)
				}
				if hosts := nsHosts(t, c.tree.Net, server, tld); len(hosts) != 1 || hosts[0] != server {
					t.Errorf(".%s apex NS = %v, want [%s]", tld, hosts, server)
				}
			}
		})
	}

	// The materialized TLD zones carry the day's delegations.
	for _, d := range domains {
		if hosts := nsHosts(t, mat.Net, mat.TLDServers[d.TLD], d.Name); len(hosts) != 1 || hosts[0] != tldsim.NSHostOf(d.Operator) {
			t.Errorf("%s: .%s delegates to %v, want [%s]", d.Name, d.TLD, hosts, tldsim.NSHostOf(d.Operator))
		}
	}
}

// ask sends one DO query to server over net.
func ask(t *testing.T, net *dnsserver.MemNet, server, name string, qtype dnswire.Type) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(1, name, qtype)
	q.SetEDNS(dnswire.ReplyUDPPayload, true)
	resp, err := net.Exchange(context.Background(), server, q)
	if err != nil {
		t.Fatal(err)
	}
	if resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("%s %v at %s: %v", name, qtype, server, resp.RCode)
	}
	return resp
}

// nsHosts asks server for name's NS RRset and returns its hosts, from the
// answer or, for a referral, the authority section.
func nsHosts(t *testing.T, net *dnsserver.MemNet, server, name string) []string {
	t.Helper()
	resp := ask(t, net, server, name, dnswire.TypeNS)
	var hosts []string
	for _, rr := range rrsOf(append(resp.Answers, resp.Authority...), name, dnswire.TypeNS) {
		hosts = append(hosts, rr.Data.(*dnswire.NS).Host)
	}
	return hosts
}

func rrsOf(rrs []*dnswire.RR, name string, qtype dnswire.Type) []*dnswire.RR {
	var out []*dnswire.RR
	for _, rr := range rrs {
		if rr.Name == name && rr.Type == qtype {
			out = append(out, rr)
		}
	}
	return out
}
