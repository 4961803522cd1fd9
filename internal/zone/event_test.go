package zone

import (
	"net/netip"
	"testing"

	"securepki.org/registrarsec/internal/dnswire"
)

// recordEvents subscribes and returns the accumulated event log.
func recordEvents(z *Zone) *[]Event {
	var log []Event
	z.OnEvent(func(ev Event) { log = append(log, ev) })
	return &log
}

func lastEvent(t *testing.T, log *[]Event) Event {
	t.Helper()
	if len(*log) == 0 {
		t.Fatal("no event emitted")
	}
	return (*log)[len(*log)-1]
}

func TestEventScopes(t *testing.T) {
	z := New("example.com")
	a(t, z, "www.example.com", "192.0.2.1")
	log := recordEvents(z)

	// Plain data mutation below the apex: name-scoped.
	a(t, z, "mail.example.com", "192.0.2.2")
	if ev := lastEvent(t, log); ev.Scope != ScopeName || ev.Name != "mail.example.com" {
		t.Errorf("add below apex: %+v", ev)
	}

	// Apex mutation: apex-scoped.
	if err := z.Add(dnswire.NewRR("example.com", 300, &dnswire.TXT{Strings: []string{"v=1"}})); err != nil {
		t.Fatal(err)
	}
	if ev := lastEvent(t, log); ev.Scope != ScopeApex {
		t.Errorf("apex add: %+v", ev)
	}

	// Remove of an existing set: name-scoped; of a missing set: no event.
	n := len(*log)
	z.Remove("mail.example.com", dnswire.TypeA)
	if ev := lastEvent(t, log); ev.Scope != ScopeName || ev.Name != "mail.example.com" {
		t.Errorf("remove: %+v", ev)
	}
	z.Remove("mail.example.com", dnswire.TypeA)
	if len(*log) != n+1 {
		t.Errorf("no-op remove emitted an event")
	}

	// RemoveType is always zone-wide.
	z.RemoveType(dnswire.TypeTXT)
	if ev := lastEvent(t, log); ev.Scope != ScopeZone {
		t.Errorf("RemoveType: %+v", ev)
	}
}

func TestBumpSerialIsApexScoped(t *testing.T) {
	z := New("example.com")
	z.MustAdd(dnswire.NewRR("example.com", 3600, &dnswire.SOA{
		MName: "ns1.example.com", RName: "hostmaster.example.com",
		Serial: 1, Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	log := recordEvents(z)
	z.BumpSerial()
	ev := lastEvent(t, log)
	if ev.Scope != ScopeApex {
		t.Errorf("BumpSerial: %+v", ev)
	}
}

func TestNSECEscalation(t *testing.T) {
	z := New("example.com")
	a(t, z, "www.example.com", "192.0.2.1")
	log := recordEvents(z)

	// Adding an NSEC RRset is itself zone-wide.
	if err := z.Add(dnswire.NewRR("example.com", 300, &dnswire.NSEC{
		NextName: "www.example.com", Types: []dnswire.Type{dnswire.TypeA},
	})); err != nil {
		t.Fatal(err)
	}
	if ev := lastEvent(t, log); ev.Scope != ScopeZone {
		t.Errorf("NSEC add: %+v", ev)
	}

	// While the chain exists, creating a brand-new owner name is zone-wide
	// (the covering spans change) ...
	a(t, z, "new.example.com", "192.0.2.3")
	if ev := lastEvent(t, log); ev.Scope != ScopeZone {
		t.Errorf("structural add with NSEC chain: %+v", ev)
	}
	// ... but adding a second type to an existing owner is not structural.
	if err := z.Add(dnswire.NewRR("new.example.com", 300, &dnswire.TXT{Strings: []string{"x"}})); err != nil {
		t.Fatal(err)
	}
	if ev := lastEvent(t, log); ev.Scope != ScopeName {
		t.Errorf("non-structural add with NSEC chain: %+v", ev)
	}
	// Destroying an owner name entirely is structural again.
	z.Remove("new.example.com", dnswire.TypeTXT)
	z.Remove("new.example.com", dnswire.TypeA)
	if ev := lastEvent(t, log); ev.Scope != ScopeZone {
		t.Errorf("owner's last RRset removed with NSEC chain: %+v", ev)
	}

	// An RRSIG covering NSEC escalates; an RRSIG covering A at a non-apex
	// owner does not.
	sig := &dnswire.RRSIG{TypeCovered: dnswire.TypeNSEC, Algorithm: dnswire.AlgED25519, SignerName: "example.com"}
	if err := z.Add(dnswire.NewRR("example.com", 300, sig)); err != nil {
		t.Fatal(err)
	}
	if ev := lastEvent(t, log); ev.Scope != ScopeZone {
		t.Errorf("RRSIG(NSEC) add: %+v", ev)
	}
	z.RemoveSigs("example.com", dnswire.TypeNSEC)
	if ev := lastEvent(t, log); ev.Scope != ScopeZone {
		t.Errorf("RemoveSigs(NSEC): %+v", ev)
	}
}

func TestCNAMEEscalation(t *testing.T) {
	z := New("example.com")
	a(t, z, "target.example.com", "192.0.2.1")
	log := recordEvents(z)
	if err := z.Add(dnswire.NewRR("alias.example.com", 300, &dnswire.CNAME{Target: "target.example.com"})); err != nil {
		t.Fatal(err)
	}
	if ev := lastEvent(t, log); ev.Scope != ScopeZone {
		t.Errorf("CNAME add: %+v", ev)
	}
	// Any mutation while a CNAME exists is zone-wide (chased answers embed
	// records from other owners).
	a(t, z, "other.example.com", "192.0.2.2")
	if ev := lastEvent(t, log); ev.Scope != ScopeZone {
		t.Errorf("mutation with CNAME present: %+v", ev)
	}
	// Once the last CNAME is gone, scoping narrows again.
	z.Remove("alias.example.com", dnswire.TypeCNAME)
	a(t, z, "third.example.com", "192.0.2.3")
	if ev := lastEvent(t, log); ev.Scope != ScopeName {
		t.Errorf("mutation after CNAME removal: %+v", ev)
	}
}

// TestEventsFollowCommit holds events to what a cache's stamps rest on:
// each committed mutation emits one event, after the commit (a subscriber
// reads the new state), and a mutation that changes nothing emits none.
func TestEventsFollowCommit(t *testing.T) {
	z := New("example.com")
	var seen [][]*dnswire.RR
	z.OnEvent(func(Event) { seen = append(seen, z.Lookup("mail.example.com", dnswire.TypeA)) })
	a(t, z, "mail.example.com", "192.0.2.2")
	z.Remove("mail.example.com", dnswire.TypeA)
	if len(seen) != 2 || len(seen[0]) != 1 || len(seen[1]) != 0 {
		t.Errorf("a subscriber read %v across an add and a remove, want the record and then nothing", seen)
	}
	a(t, z, "mail.example.com", "192.0.2.2")
	n := len(seen)
	a(t, z, "mail.example.com", "192.0.2.2")
	z.Remove("absent.example.com", dnswire.TypeA)
	z.RemoveSigs("absent.example.com", dnswire.TypeA)
	if len(seen) != n {
		t.Errorf("no-op mutations emitted %d events", len(seen)-n)
	}
}

func TestCloneDropsSubscribers(t *testing.T) {
	z := New("example.com")
	a(t, z, "www.example.com", "192.0.2.1")
	log := recordEvents(z)
	c := z.Clone()
	n := len(*log)
	a(t, c, "clone-only.example.com", "192.0.2.9")
	if len(*log) != n {
		t.Error("clone mutation notified the original's subscriber")
	}
	// The clone still tracks escalation state: it knows about CNAMEs added
	// before the clone.
	z2 := New("example.com")
	z2.MustAdd(dnswire.NewRR("alias.example.com", 300, &dnswire.CNAME{Target: "t.example.com"}))
	c2 := z2.Clone()
	log2 := recordEvents(c2)
	if err := c2.Add(dnswire.NewRR("x.example.com", 300, &dnswire.A{Addr: netip.MustParseAddr("192.0.2.4")})); err != nil {
		t.Fatal(err)
	}
	if ev := lastEvent(t, log2); ev.Scope != ScopeZone {
		t.Errorf("clone lost cname escalation state: %+v", ev)
	}
}
