package resolver_test

import (
	"context"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/resolver"
)

// TestFullChainOverRealUDP stands up the root, the .com TLD and two child
// domains as three separate real UDP/TCP servers on loopback, then runs the
// iterative validating resolver against them — the complete production
// stack with nothing in memory.
func TestFullChainOverRealUDP(t *testing.T) {
	h, err := dnstest.NewHierarchy(testNow, "com")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.AddDomain("secure.com", "ns1.udp-op.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	if _, _, err := h.AddDomain("partial.com", "ns1.udp-op.net", dnstest.Partial); err != nil {
		t.Fatal(err)
	}

	// Three real servers: root, TLD, operator.
	addrOf := map[string]string{}
	start := func(name string, handler dnsserver.Handler) *dnsserver.Server {
		t.Helper()
		srv := &dnsserver.Server{Handler: handler}
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		addrOf[name] = srv.Addr()
		return srv
	}
	rootSrv := start(dnstest.RootAddr, h.Net.Lookup(dnstest.RootAddr))
	start(dnstest.TLDServerAddr("com"), h.TLDServer("com"))
	start("ns1.udp-op.net", h.OperatorServer("ns1.udp-op.net"))

	r := resolver.New(resolver.Config{
		Roots:    []string{rootSrv.Addr()},
		Exchange: byName{&dnsserver.NetExchanger{Timeout: 2 * time.Second}, addrOf},
		DNSSEC:   true,
	})
	v := &resolver.Validating{
		R:      r,
		Anchor: h.Anchor,
		Now:    func() time.Time { return testNow },
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()

	res, chain, err := v.Lookup(ctx, "www.secure.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if res.RCode != dnswire.RCodeSuccess || len(res.Answers) == 0 {
		t.Fatalf("resolution over UDP failed: %v", res.RCode)
	}
	if chain.Status != dnssec.Secure {
		t.Fatalf("chain over UDP: %v (%s)", chain.Status, chain.Reason)
	}
	// The partial domain validates as insecure over the same wire.
	_, chain, err = v.Lookup(ctx, "www.partial.com", dnswire.TypeA)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Status != dnssec.Insecure {
		t.Errorf("partial domain: %v (%s), want insecure", chain.Status, chain.Reason)
	}
	if r.Queries() == 0 {
		t.Error("no queries recorded")
	}
}

// byName sends a query addressed to a nameserver's hostname, as the
// resolver addresses a nameserver without glue, to the loopback address
// that server listens on.
type byName struct {
	ex    *dnsserver.NetExchanger
	addrs map[string]string
}

func (b byName) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	if addr, ok := b.addrs[server]; ok {
		server = addr
	}
	return b.ex.Exchange(ctx, server, q)
}
