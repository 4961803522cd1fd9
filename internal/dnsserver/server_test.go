package dnsserver_test

import (
	"context"
	"net/netip"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

var testNow = time.Date(2016, 7, 1, 0, 0, 0, 0, time.UTC)

func newHierarchy(t *testing.T) *dnstest.Hierarchy {
	t.Helper()
	h, err := dnstest.NewHierarchy(testNow, "com", "org")
	if err != nil {
		t.Fatal(err)
	}
	return h
}

func query(t *testing.T, h dnsserver.Handler, name string, typ dnswire.Type, do bool) *dnswire.Message {
	t.Helper()
	q := dnswire.NewQuery(42, name, typ)
	if do {
		q.SetEDNS(4096, true)
	}
	resp := h.ServeDNS(q)
	if resp == nil {
		t.Fatal("nil response")
	}
	return resp
}

func TestAuthoritativeAnswer(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	srv := h.OperatorServer("ns1.operator.net")
	resp := query(t, srv, "www.example.com", dnswire.TypeA, false)
	if !resp.Authoritative || resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("AA=%v rcode=%v", resp.Authoritative, resp.RCode)
	}
	if len(resp.Answers) != 1 || resp.Answers[0].Type != dnswire.TypeA {
		t.Fatalf("answers: %v", resp.Answers)
	}
	// Without DO, no RRSIGs.
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeRRSIG {
			t.Error("RRSIG included without DO bit")
		}
	}
	// With DO, RRSIGs ride along.
	resp = query(t, srv, "www.example.com", dnswire.TypeA, true)
	haveSig := false
	for _, rr := range resp.Answers {
		if rr.Type == dnswire.TypeRRSIG {
			haveSig = true
		}
	}
	if !haveSig {
		t.Error("no RRSIG with DO bit set")
	}
}

func TestReferralWithDS(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	tld := h.TLDServer("com")
	resp := query(t, tld, "www.example.com", dnswire.TypeA, true)
	if resp.Authoritative {
		t.Error("referral must not set AA")
	}
	var sawNS, sawDS, sawSig bool
	for _, rr := range resp.Authority {
		switch rr.Type {
		case dnswire.TypeNS:
			sawNS = true
			if rr.Name != "example.com" {
				t.Errorf("NS owner %q", rr.Name)
			}
		case dnswire.TypeDS:
			sawDS = true
		case dnswire.TypeRRSIG:
			sawSig = true
		}
	}
	if !sawNS || !sawDS || !sawSig {
		t.Errorf("referral sections incomplete: NS=%v DS=%v RRSIG=%v", sawNS, sawDS, sawSig)
	}
	// Without DO no DS in the referral.
	resp = query(t, tld, "www.example.com", dnswire.TypeA, false)
	for _, rr := range resp.Authority {
		if rr.Type == dnswire.TypeDS {
			t.Error("DS included without DO")
		}
	}
}

func TestDSQueryAnsweredByParent(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	tld := h.TLDServer("com")
	resp := query(t, tld, "example.com", dnswire.TypeDS, true)
	if !resp.Authoritative {
		t.Error("parent must answer DS authoritatively")
	}
	if len(resp.Answers) == 0 || resp.Answers[0].Type != dnswire.TypeDS {
		t.Fatalf("DS answer missing: %v", resp.Answers)
	}
	// Unsigned sibling: DS query yields authoritative NODATA with SOA.
	if _, _, err := h.AddDomain("plain.com", "ns1.operator.net", dnstest.Unsigned); err != nil {
		t.Fatal(err)
	}
	resp = query(t, tld, "plain.com", dnswire.TypeDS, true)
	if !resp.Authoritative || len(resp.Answers) != 0 {
		t.Errorf("NODATA expected: AA=%v answers=%d", resp.Authoritative, len(resp.Answers))
	}
	soaSeen := false
	for _, rr := range resp.Authority {
		if rr.Type == dnswire.TypeSOA {
			soaSeen = true
		}
	}
	if !soaSeen {
		t.Error("NODATA without SOA")
	}
}

func TestNXDomainAndNodata(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	srv := h.OperatorServer("ns1.operator.net")
	resp := query(t, srv, "missing.example.com", dnswire.TypeA, false)
	if resp.RCode != dnswire.RCodeNameError {
		t.Errorf("rcode = %v, want NXDOMAIN", resp.RCode)
	}
	// NODATA: www exists, MX does not.
	resp = query(t, srv, "www.example.com", dnswire.TypeMX, false)
	if resp.RCode != dnswire.RCodeSuccess || len(resp.Answers) != 0 {
		t.Errorf("NODATA: rcode=%v answers=%d", resp.RCode, len(resp.Answers))
	}
}

func TestCNAMEChase(t *testing.T) {
	h := newHierarchy(t)
	child, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Unsigned)
	if err != nil {
		t.Fatal(err)
	}
	child.MustAdd(dnswire.NewRR("alias.example.com", 300, &dnswire.CNAME{Target: "www.example.com"}))
	srv := h.OperatorServer("ns1.operator.net")
	resp := query(t, srv, "alias.example.com", dnswire.TypeA, false)
	if len(resp.Answers) != 2 {
		t.Fatalf("CNAME chase answers: %v", resp.Answers)
	}
	if resp.Answers[0].Type != dnswire.TypeCNAME || resp.Answers[1].Type != dnswire.TypeA {
		t.Errorf("answer order: %v, %v", resp.Answers[0].Type, resp.Answers[1].Type)
	}
}

func TestRefusedOutOfBailiwick(t *testing.T) {
	h := newHierarchy(t)
	srv := h.OperatorServer("ns1.operator.net")
	resp := query(t, srv, "www.elsewhere.net", dnswire.TypeA, false)
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode = %v, want REFUSED", resp.RCode)
	}
}

func TestNotImplemented(t *testing.T) {
	h := newHierarchy(t)
	q := dnswire.NewQuery(1, "com", dnswire.TypeA)
	q.OpCode = 4 // NOTIFY
	resp := h.TLDServer("com").ServeDNS(q)
	if resp.RCode != dnswire.RCodeNotImplemented {
		t.Errorf("rcode = %v", resp.RCode)
	}
	q2 := &dnswire.Message{} // zero questions
	resp = h.TLDServer("com").ServeDNS(q2)
	if resp.RCode != dnswire.RCodeNotImplemented {
		t.Errorf("rcode = %v for empty question", resp.RCode)
	}
}

func TestMemNetStrictRoundTrip(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	q := dnswire.NewQuery(9, "www.example.com", dnswire.TypeA)
	q.SetEDNS(4096, true)
	resp, err := h.Net.Exchange(context.Background(), "ns1.operator.net", q)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Answers) == 0 {
		t.Error("no answers through strict MemNet")
	}
	if _, err := h.Net.Exchange(context.Background(), "nonexistent.example", q); err == nil {
		t.Error("exchange to unregistered address succeeded")
	}
}

func TestUDPTCPServer(t *testing.T) {
	h := newHierarchy(t)
	child, _, err := h.AddDomain("example.com", "ns1.operator.net", dnstest.Full)
	if err != nil {
		t.Fatal(err)
	}
	// Add enough TXT data that the DNSSEC response exceeds 512 bytes and
	// forces truncation + TCP retry.
	long := strings.Repeat("x", 200)
	child.MustAdd(dnswire.NewRR("big.example.com", 300, &dnswire.TXT{Strings: []string{long, long, long}}))

	auth := dnsserver.NewAuthoritative()
	auth.AddZone(child)
	srv := listen(t, auth)

	ex := &dnsserver.NetExchanger{Timeout: 2 * time.Second}
	ctx := context.Background()

	q := dnswire.NewQuery(77, "www.example.com", dnswire.TypeA)
	resp, err := ex.Exchange(ctx, srv.Addr(), q)
	if err != nil {
		t.Fatalf("udp exchange: %v", err)
	}
	if len(resp.Answers) != 1 {
		t.Fatalf("answers: %v", resp.Answers)
	}

	// >512B answer without EDNS: server truncates, exchanger retries TCP.
	q2 := dnswire.NewQuery(78, "big.example.com", dnswire.TypeTXT)
	resp2, err := ex.Exchange(ctx, srv.Addr(), q2)
	if err != nil {
		t.Fatalf("tcp fallback exchange: %v", err)
	}
	if resp2.Truncated {
		t.Error("final response still truncated")
	}
	if len(resp2.Answers) != 1 {
		t.Fatalf("big answers: %d", len(resp2.Answers))
	}

	// The UDP answer itself is truncated: a plain datagram exchange sees TC=1.
	var resp3 dnswire.Message
	if err := resp3.Unpack(overUDP(t, srv.Addr(), mustPack(t, q2))); err != nil {
		t.Fatal(err)
	}
	if !resp3.Truncated {
		t.Error("expected truncated UDP response")
	}
}

func TestServerCloseIdempotent(t *testing.T) {
	srv := &dnsserver.Server{Handler: dnsserver.HandlerFunc(func(q *dnswire.Message) *dnswire.Message {
		return q.Reply()
	})}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestZoneManagement(t *testing.T) {
	auth := dnsserver.NewAuthoritative()
	z := zone.New("example.net")
	z.MustAdd(dnswire.NewRR("example.net", 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.4")}))
	auth.AddZone(z)
	if auth.ZoneCount() != 1 || auth.Zone("example.net") == nil {
		t.Error("zone not registered")
	}
	auth.RemoveZone("example.net")
	if auth.ZoneCount() != 0 {
		t.Error("zone not removed")
	}
	resp := auth.ServeDNS(dnswire.NewQuery(5, "example.net", dnswire.TypeA))
	if resp.RCode != dnswire.RCodeRefused {
		t.Errorf("rcode after removal: %v", resp.RCode)
	}
}
