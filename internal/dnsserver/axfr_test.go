package dnsserver_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
)

// startTLDServer exposes the hierarchy's .com server over real sockets with
// AXFR enabled per policy.
func startTLDServer(t *testing.T, h *dnstest.Hierarchy, allow dnsserver.AXFRAllowed) *dnsserver.Server {
	t.Helper()
	auth := h.TLDServer("com")
	auth.EnableAXFR(allow)
	return listen(t, auth)
}

func TestAXFRTransfersWholeZone(t *testing.T) {
	h := newHierarchy(t)
	for _, d := range []struct {
		name string
		mode dnstest.DomainMode
	}{
		{"alpha.com", dnstest.Full},
		{"beta.com", dnstest.Partial},
		{"gamma.com", dnstest.Unsigned},
	} {
		if _, _, err := h.AddDomain(d.name, "ns1.op.net", d.mode); err != nil {
			t.Fatal(err)
		}
	}
	srv := startTLDServer(t, h, func(string) bool { return true })

	client := &dnsserver.AXFRClient{}
	z, err := client.Transfer(context.Background(), srv.Addr(), "com")
	if err != nil {
		t.Fatal(err)
	}
	// The transferred zone matches the served one record for record.
	want := h.TLDZone("com")
	if z.Len() != want.Len() {
		t.Errorf("transferred %d records, zone has %d", z.Len(), want.Len())
	}
	if len(z.Lookup("alpha.com", dnswire.TypeNS)) == 0 {
		t.Error("delegation missing after transfer")
	}
	if len(z.Lookup("alpha.com", dnswire.TypeDS)) == 0 {
		t.Error("DS missing after transfer")
	}
	if z.SOA() == nil {
		t.Error("SOA missing after transfer")
	}
}

func TestAXFRDeniedByPolicy(t *testing.T) {
	h := newHierarchy(t)
	srv := startTLDServer(t, h, func(string) bool { return false })
	client := &dnsserver.AXFRClient{}
	if _, err := client.Transfer(context.Background(), srv.Addr(), "com"); err == nil {
		t.Fatal("denied transfer succeeded")
	}
	// Unknown zones are refused too.
	srv2 := startTLDServer(t, h, func(string) bool { return true })
	if _, err := client.Transfer(context.Background(), srv2.Addr(), "example.net"); err == nil {
		t.Fatal("transfer of unknown zone succeeded")
	}
}

func TestAXFRLargeZoneChunks(t *testing.T) {
	h := newHierarchy(t)
	// Enough delegations that the transfer needs multiple messages.
	for i := 0; i < 400; i++ {
		name := "bulk" + string(rune('a'+i%26)) + string(rune('a'+(i/26)%26)) + string(rune('a'+i/676)) + ".com"
		if _, _, err := h.AddDomain(name, "ns1.op.net", dnstest.Unsigned); err != nil {
			t.Fatal(err)
		}
	}
	srv := startTLDServer(t, h, func(string) bool { return true })
	client := &dnsserver.AXFRClient{}
	z, err := client.Transfer(context.Background(), srv.Addr(), "com")
	if err != nil {
		t.Fatal(err)
	}
	if z.Len() != h.TLDZone("com").Len() {
		t.Errorf("transferred %d records, zone has %d", z.Len(), h.TLDZone("com").Len())
	}
	// Normal queries still work on the same connection handling path.
	ex := &dnsserver.NetExchanger{Timeout: 2 * time.Second}
	resp, err := ex.Exchange(context.Background(), srv.Addr(), dnswire.NewQuery(5, "bulkaaa.com", dnswire.TypeNS))
	if err != nil || resp.RCode != dnswire.RCodeSuccess {
		t.Fatalf("post-AXFR query: %v %v", err, resp)
	}
}

// TestAXFROfPlannedZone: a transfer carries every signature the zone plans,
// whether or not anyone has asked for it yet — the transfer of a zone nobody
// has read equals the transfer of the same zone once everything is produced,
// and both equal the zone as it writes itself.
func TestAXFROfPlannedZone(t *testing.T) {
	h := newHierarchy(t)
	if _, _, err := h.AddDomain("alpha.com", "ns1.op.net", dnstest.Full); err != nil {
		t.Fatal(err)
	}
	served := h.TLDZone("com")
	if served.PlannedSigs() == 0 {
		t.Fatal("fixture: nothing left planned in the TLD zone")
	}
	srv := startTLDServer(t, h, func(string) bool { return true })
	client := &dnsserver.AXFRClient{}
	var files [3]bytes.Buffer
	for i := 0; i < 2; i++ {
		z, err := client.Transfer(context.Background(), srv.Addr(), "com")
		if err != nil {
			t.Fatal(err)
		}
		if served.PlannedSigs() != 0 {
			t.Fatalf("transfer %d left %d signatures planned", i, served.PlannedSigs())
		}
		if _, err := z.WriteTo(&files[i]); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := served.WriteTo(&files[2]); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(files[0].Bytes(), files[1].Bytes()) || !bytes.Equal(files[1].Bytes(), files[2].Bytes()) {
		t.Errorf("transfers of the planned and of the produced zone differ:\n%s\n---\n%s\n---\n%s", &files[0], &files[1], &files[2])
	}
	if !bytes.Contains(files[0].Bytes(), []byte("RRSIG\tSOA")) && !bytes.Contains(files[0].Bytes(), []byte("RRSIG SOA")) {
		t.Errorf("no SOA signature in the transferred zone:\n%s", &files[0])
	}
}
