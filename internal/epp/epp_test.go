package epp_test

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"io"
	"net"
	"reflect"
	"runtime"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/ecotest"
	"securepki.org/registrarsec/internal/epp"
	"securepki.org/registrarsec/internal/registry"
)

// startServer brings up an ecosystem's .com registry behind an EPP endpoint.
func startServer(t *testing.T) (*ecosystem.Ecosystem, *epp.Server) {
	t.Helper()
	eco := ecotest.New(t, ecosystem.Config{TLDs: []string{"com"}}).Ecosystem
	reg := eco.Registries["com"]
	reg.Accredit("acme", "s3cret")
	reg.Accredit("rival", "hunter2")
	srv := &epp.Server{Session: reg.ServeEPP}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	return eco, srv
}

func dial(t *testing.T, srv *epp.Server) *epp.Client {
	t.Helper()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	c, err := epp.NewClient(conn)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payload := []byte("<epp/>")
	if err := epp.WriteFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := epp.ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Errorf("frame: %q", got)
	}
	// Hostile lengths are rejected.
	if _, err := epp.ReadFrame(bytes.NewReader([]byte{0, 0, 0, 1})); err == nil {
		t.Error("undersized frame accepted")
	}
	if _, err := epp.ReadFrame(bytes.NewReader([]byte{0xff, 0xff, 0xff, 0xff})); err == nil {
		t.Error("oversized frame accepted")
	}
}

// TestShortFrameReservesNothing: a header claiming the largest frame,
// followed by a few bytes and the end of the stream, is a short frame, and
// reading it allocates about what arrived, not the claimed MiB.
func TestShortFrameReservesNothing(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], 1<<20)
	stream := append(hdr[:], "<epp>....."...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := epp.ReadFrame(bytes.NewReader(stream))
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("short frame: %v, want io.ErrUnexpectedEOF", err)
	}
	if delta := after.TotalAlloc - before.TotalAlloc; delta >= 64<<10 {
		t.Fatalf("reading a 14-byte stream allocated %d B", delta)
	}
}

// seedDocs are a document of each kind a session carries.
func seedDocs() []*epp.Epp {
	return []*epp.Epp{
		{Greeting: &epp.Greeting{SvID: "registry", Services: []string{"urn:ietf:params:xml:ns:domain-1.0"}}},
		{Command: &epp.Command{Login: &epp.Login{ClID: "acme", Pw: "s3cret"}, ClTRID: "CL-1"}},
		{Command: &epp.Command{
			Update: &epp.DomainUpdate{Name: "x.com", Chg: &epp.DomainChg{NS: []string{"ns1.a.net", "ns2.a.net"}}},
			Extension: &epp.Extension{SecDNS: &epp.SecDNS{
				RemAll: true,
				Add:    []epp.DSData{{KeyTag: 60485, Alg: 8, DigestType: 2, Digest: "AABB"}},
			}},
		}},
		{Response: &epp.Response{
			Result:  epp.Result{Code: epp.CodeSuccess, Msg: "ok"},
			ResData: &epp.DomainInfo{Name: "x.com", ClID: "acme", NS: []string{"ns1.a.net"}, DS: []epp.DSData{{KeyTag: 1}}},
			ClTRID:  "CL-2", SvTRID: "SV-2",
		}},
	}
}

// rawSeeds are byte strings no frame reader may choke on.
var rawSeeds = [][]byte{{0, 0, 0, 4}, {0, 0x10, 0, 0, '<'}}

// FuzzEPPFrame reads arbitrary bytes as a frame and a document. It must
// never panic, and a document it accepts must reach a fixpoint: written
// out, framed, read back and written again, it renders the same bytes.
func FuzzEPPFrame(f *testing.F) {
	for _, doc := range seedDocs() {
		b, err := epp.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		var frame bytes.Buffer
		if err := epp.WriteFrame(&frame, b); err != nil {
			f.Fatal(err)
		}
		f.Add(frame.Bytes())
	}
	for _, raw := range rawSeeds {
		f.Add(raw)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		payload, err := epp.ReadFrame(bytes.NewReader(data))
		if err != nil {
			return
		}
		doc, err := epp.Unmarshal(payload)
		if err != nil {
			return
		}
		first, err := epp.Marshal(doc)
		if err != nil {
			t.Fatalf("accepted document does not render: %v", err)
		}
		var frame bytes.Buffer
		if err := epp.WriteFrame(&frame, first); err != nil {
			return // escaping grew it past the largest frame
		}
		payload, err = epp.ReadFrame(&frame)
		if err != nil {
			t.Fatalf("re-read of a written frame: %v", err)
		}
		again, err := epp.Unmarshal(payload)
		if err != nil {
			t.Fatalf("re-parse of a rendered document: %v\n%s", err, first)
		}
		second, err := epp.Marshal(again)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(first, second) {
			t.Fatalf("no fixpoint:\n%s\n%s", first, second)
		}
	})
}

func TestLoginRequiredAndAuth(t *testing.T) {
	_, srv := startServer(t)
	c := dial(t, srv)
	// Commands before login are refused.
	if err := c.CreateDomain("early.com", []string{"ns1.op.net"}, nil); !errors.Is(err, epp.ErrEPPResult) {
		t.Errorf("pre-login create: %v", err)
	}
	// Wrong password.
	if err := c.Login("acme", "wrong"); !errors.Is(err, epp.ErrEPPResult) {
		t.Errorf("bad login: %v", err)
	}
	if err := c.Login("acme", "s3cret"); err != nil {
		t.Fatalf("login: %v", err)
	}
}

// TestCloseDoesNotWaitOutSessions: Close ends the sessions it finds open —
// an idle one would otherwise hold it for the read deadline, and one that
// keeps issuing commands for good.
func TestCloseDoesNotWaitOutSessions(t *testing.T) {
	_, srv := startServer(t)
	dial(t, srv) // idle: greeted, never speaks
	chatty := dial(t, srv)
	if err := chatty.Login("acme", "s3cret"); err != nil {
		t.Fatal(err)
	}
	stopped := make(chan struct{})
	go func() {
		defer close(stopped)
		for {
			if _, err := chatty.Info("absent.com"); err != nil && !errors.Is(err, epp.ErrEPPResult) {
				return // the server hung up
			}
		}
	}()

	closed := make(chan struct{})
	start := time.Now()
	go func() {
		srv.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close still waiting on open sessions after 5s")
	}
	if took := time.Since(start); took > time.Second {
		t.Errorf("Close took %v with two open sessions", took)
	}
	<-stopped
}

func TestDomainLifecycleOverEPP(t *testing.T) {
	eco, srv := startServer(t)
	c := dial(t, srv)
	if err := c.Login("acme", "s3cret"); err != nil {
		t.Fatal(err)
	}
	// Create with delegation.
	if err := c.CreateDomain("wired.com", []string{"ns1.op.net", "ns2.op.net"}, nil); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDomain("wired.com", []string{"ns1.op.net"}, nil); !errors.Is(err, epp.ErrEPPResult) {
		t.Errorf("duplicate create: %v", err)
	}
	info, err := c.Info("wired.com")
	if err != nil {
		t.Fatal(err)
	}
	if info.ClID != "acme" || len(info.NS) != 2 {
		t.Errorf("info: %+v", info)
	}
	// The registration is immediately visible in the signed TLD zone.
	if len(eco.Registries["com"].Server().Zone("com").Lookup("wired.com", dnswire.TypeNS)) != 2 {
		t.Error("delegation not in zone")
	}
	// Update NS, renew, delete.
	if err := c.UpdateNS("wired.com", []string{"ns9.other.net"}); err != nil {
		t.Fatal(err)
	}
	info, _ = c.Info("wired.com")
	if len(info.NS) != 1 || info.NS[0] != "ns9.other.net" {
		t.Errorf("NS after update: %v", info.NS)
	}
	if err := c.Renew("wired.com"); err != nil {
		t.Fatal(err)
	}
	if err := c.DeleteDomain("wired.com"); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Info("wired.com"); !errors.Is(err, epp.ErrEPPResult) {
		t.Errorf("info after delete: %v", err)
	}
}

func TestSecDNSOverEPPValidatesEndToEnd(t *testing.T) {
	// The paper's critical operation over the real protocol: a registrar
	// uploads a customer's DS via EPP secDNS, and the domain becomes
	// validatable through live DNS.
	eco, srv := startServer(t)
	c := dial(t, srv)
	if err := c.Login("acme", "s3cret"); err != nil {
		t.Fatal(err)
	}
	// The owner runs a signed nameserver.
	_, signer := ecotest.OwnerZone(t, eco, "secured.com", "ns1.owner.example")

	if err := c.CreateDomain("secured.com", []string{"ns1.owner.example"}, nil); err != nil {
		t.Fatal(err)
	}
	dss, err := signer.DSRecords("secured.com", dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.UpdateDS("secured.com", dss); err != nil {
		t.Fatal(err)
	}
	// Validate through the live chain.
	v := eco.Validating()
	_, chain, err := v.Lookup(context.Background(), "secured.com", dnswire.TypeDNSKEY)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Status != dnssec.Secure {
		t.Fatalf("after EPP secDNS upload: %v (%s)", chain.Status, chain.Reason)
	}
	// Info reflects the DS; a round trip through secDNS form is faithful.
	info, err := c.Info("secured.com")
	if err != nil {
		t.Fatal(err)
	}
	if len(info.DS) != 1 {
		t.Fatalf("DS in info: %d", len(info.DS))
	}
	back, err := info.DS[0].ToDS()
	if err != nil {
		t.Fatal(err)
	}
	if back.KeyTag != dss[0].KeyTag || !bytes.Equal(back.Digest, dss[0].Digest) {
		t.Error("DS mangled in secDNS round trip")
	}
	// Removing the DS over EPP returns the domain to insecure.
	if err := c.UpdateDS("secured.com", nil); err != nil {
		t.Fatal(err)
	}
	_, chain, err = v.Lookup(context.Background(), "secured.com", dnswire.TypeDNSKEY)
	if err != nil {
		t.Fatal(err)
	}
	if chain.Status != dnssec.Insecure {
		t.Errorf("after DS removal: %v", chain.Status)
	}
}

func TestCrossRegistrarAuthorizationOverEPP(t *testing.T) {
	_, srv := startServer(t)
	acme := dial(t, srv)
	if err := acme.Login("acme", "s3cret"); err != nil {
		t.Fatal(err)
	}
	if err := acme.CreateDomain("mine.com", []string{"ns1.op.net"}, nil); err != nil {
		t.Fatal(err)
	}
	rival := dial(t, srv)
	if err := rival.Login("rival", "hunter2"); err != nil {
		t.Fatal(err)
	}
	// The rival can read registry data but cannot mutate another
	// registrar's object.
	if _, err := rival.Info("mine.com"); err != nil {
		t.Errorf("info: %v", err)
	}
	if err := rival.UpdateNS("mine.com", []string{"ns1.evil.net"}); !errors.Is(err, epp.ErrEPPResult) {
		t.Errorf("cross-registrar update: %v", err)
	}
	garbage := &dnswire.DS{KeyTag: 1, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	if err := rival.UpdateDS("mine.com", []*dnswire.DS{garbage}); !errors.Is(err, epp.ErrEPPResult) {
		t.Errorf("cross-registrar DS: %v", err)
	}
	if err := rival.DeleteDomain("mine.com"); !errors.Is(err, epp.ErrEPPResult) {
		t.Errorf("cross-registrar delete: %v", err)
	}
}

func TestDocumentRoundTrip(t *testing.T) {
	doc := &epp.Epp{Command: &epp.Command{
		Create: &epp.DomainCreate{Name: "x.com", NS: []string{"ns1.a.net"}},
		Extension: &epp.Extension{SecDNS: &epp.SecDNS{
			RemAll: true,
			Add:    []epp.DSData{{KeyTag: 60485, Alg: 8, DigestType: 2, Digest: "AABB"}},
		}},
		ClTRID: "CL-1",
	}}
	b, err := epp.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	got, err := epp.Unmarshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if got.Command == nil || got.Command.Create == nil || got.Command.Create.Name != "x.com" {
		t.Fatalf("round trip: %+v", got)
	}
	sec := got.Command.Extension.SecDNS
	if sec == nil || !sec.RemAll || len(sec.Add) != 1 || sec.Add[0].KeyTag != 60485 {
		t.Fatalf("secDNS round trip: %+v", sec)
	}
	if _, err := epp.Unmarshal([]byte("not xml")); err == nil {
		t.Error("garbage accepted")
	}
	// Bad digest hex fails conversion.
	if _, err := (epp.DSData{Digest: "zz"}).ToDS(); err == nil {
		t.Error("bad digest accepted")
	}
}

// secDNSAdd is a secDNS payload replacing the DS RRset with one record of
// the given digest.
func secDNSAdd(digest string) *epp.Extension {
	return &epp.Extension{SecDNS: &epp.SecDNS{RemAll: true, Add: []epp.DSData{{KeyTag: 1, Alg: 15, DigestType: 2, Digest: digest}}}}
}

// badDigestCommands are a create and an update whose DS digest is not hex:
// each must fail whole, before the registry changes.
var badDigestCommands = []*epp.Command{
	{Create: &epp.DomainCreate{Name: "half.com", NS: []string{"ns1.x.net"}}, Extension: secDNSAdd("zz")},
	{Update: &epp.DomainUpdate{Name: "x.com", Chg: &epp.DomainChg{NS: []string{"ns9.x.net"}}}, Extension: secDNSAdd("zz")},
}

// TestFailedCommandChangesNothing: a create or an update whose secDNS data
// does not decode is a parameter error (2005), and neither registers the
// domain nor touches its delegation.
func TestFailedCommandChangesNothing(t *testing.T) {
	eco, srv := startServer(t)
	reg := eco.Registries["com"]
	c := dial(t, srv)
	if err := c.Login("acme", "s3cret"); err != nil {
		t.Fatal(err)
	}
	if err := c.CreateDomain("x.com", []string{"ns1.x.net"}, nil); err != nil {
		t.Fatal(err)
	}
	before, _ := reg.Registration("x.com")
	for _, cmd := range badDigestCommands {
		resp, _ := c.Do(cmd)
		if resp == nil || resp.Result.Code != epp.CodeParamError {
			t.Errorf("bad digest: %+v, want %d", resp, epp.CodeParamError)
		}
	}
	if r, ok := reg.Registration("half.com"); ok {
		t.Errorf("a failed create registered half.com to %s", r.RegistrarID)
	}
	if after, _ := reg.Registration("x.com"); !reflect.DeepEqual(after, before) {
		t.Errorf("a failed update changed x.com: NS %v, was %v", after.NS, before.NS)
	}
	// An update whose chg names no nameserver is refused too, not ignored.
	if err := c.UpdateNS("x.com", nil); !errors.Is(err, epp.ErrEPPResult) {
		t.Errorf("update to no nameservers: %v", err)
	}
}

// TestSecondLoginRefused: a logged-in session refuses another <login> with
// 2002 (RFC 5730 section 2.9.1.1) and keeps acting as who it was.
func TestSecondLoginRefused(t *testing.T) {
	eco, srv := startServer(t)
	c := dial(t, srv)
	if err := c.Login("acme", "s3cret"); err != nil {
		t.Fatal(err)
	}
	resp, _ := c.Do(&epp.Command{Login: &epp.Login{ClID: "rival", Pw: "hunter2"}})
	if resp == nil || resp.Result.Code != epp.CodeCommandUse {
		t.Fatalf("second login: %+v, want %d", resp, epp.CodeCommandUse)
	}
	if err := c.CreateDomain("after.com", []string{"ns1.x.net"}, nil); err != nil {
		t.Fatal(err)
	}
	if r, _ := eco.Registries["com"].Registration("after.com"); r.RegistrarID != "acme" {
		t.Errorf("created as %s after a refused login, want acme", r.RegistrarID)
	}
}

// TestEmptyPasswordNeverAuthenticates: a registrar accredited with an empty
// password cannot log in, with that password or any other.
func TestEmptyPasswordNeverAuthenticates(t *testing.T) {
	eco, srv := startServer(t)
	eco.Registries["com"].Accredit("blank", "")
	c := dial(t, srv)
	for _, pw := range []string{"", "x"} {
		if err := c.Login("blank", pw); !errors.Is(err, epp.ErrEPPResult) {
			t.Errorf("login with %q: %v", pw, err)
		}
	}
}

// FuzzEPPSession sends an arbitrary document, as a command, to a registry
// session logged in as acme, in a registry where acme holds x.com and rival
// y.com. It must never panic, every reply is a <response>, and a command
// that fails leaves the registration of every domain it names — and of x.com
// and y.com — as it was.
func FuzzEPPSession(f *testing.F) {
	for _, doc := range seedDocs() {
		b, err := epp.Marshal(doc)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	for _, raw := range append(rawSeeds, nil) { // nil: an empty document
		f.Add(raw)
	}
	for _, cmd := range append(badDigestCommands, &epp.Command{Login: &epp.Login{ClID: "rival", Pw: "hunter2"}}) {
		b, err := epp.Marshal(&epp.Epp{Command: cmd})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		reg, err := registry.New(registry.Config{TLD: "com", NSHost: "a.gtld.test", AcceptsDS: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, owner := range []struct{ id, domain string }{{"acme", "x.com"}, {"rival", "y.com"}} {
			reg.Accredit(owner.id, "pw")
			c, err := reg.Dial(owner.id, "pw")
			if err != nil {
				t.Fatal(err)
			}
			err = c.CreateDomain(owner.domain, []string{"ns1.op.net"}, nil)
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
		}
		named := []string{"x.com", "y.com"}
		if parsed, err := epp.Unmarshal(doc); err == nil && parsed.Command != nil {
			cmd := parsed.Command
			for _, ref := range []*epp.DomainRef{cmd.Info, cmd.Delete, cmd.Renew} {
				if ref != nil {
					named = append(named, ref.Name)
				}
			}
			if cmd.Create != nil {
				named = append(named, cmd.Create.Name)
			}
			if cmd.Update != nil {
				named = append(named, cmd.Update.Name)
			}
		}
		before := map[string]*registry.Registration{}
		for _, name := range named {
			before[name], _ = reg.Registration(name)
		}

		conn, srv := net.Pipe()
		defer conn.Close()
		go reg.ServeEPP(srv)
		conn.SetDeadline(time.Now().Add(5 * time.Second))
		if _, err := epp.ReadFrame(conn); err != nil {
			t.Fatalf("greeting: %v", err)
		}
		login, err := epp.Marshal(&epp.Epp{Command: &epp.Command{Login: &epp.Login{ClID: "acme", Pw: "pw"}}})
		if err != nil {
			t.Fatal(err)
		}
		if len(doc)+4 > 1<<20 {
			return // no frame holds it
		}
		for i, payload := range [][]byte{login, doc} {
			if err := epp.WriteFrame(conn, payload); err != nil {
				t.Fatal(err)
			}
			frame, err := epp.ReadFrame(conn)
			if err != nil {
				t.Fatalf("reply %d: %v", i, err)
			}
			reply, err := epp.Unmarshal(frame)
			if err != nil || reply.Response == nil {
				t.Fatalf("reply %d is not a response: %v\n%s", i, err, frame)
			}
			if i == 0 || reply.Response.Result.OK() {
				continue
			}
			for name, was := range before {
				if now, _ := reg.Registration(name); !reflect.DeepEqual(now, was) {
					t.Fatalf("failed command (%d %s) changed %s: %+v, was %+v", reply.Response.Result.Code, reply.Response.Result.Msg, name, now, was)
				}
			}
		}
	})
}
