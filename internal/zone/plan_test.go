package zone

import (
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
)

// filedSigs counts the RRSIG records actually held at name, without asking
// for any to be produced.
func filedSigs(z *Zone, name string) int {
	z.mu.RLock()
	defer z.mu.RUnlock()
	return len(z.sets[sigKey(name)])
}

// verifies reports whether sigs is exactly one RRSIG that verifies over the
// RRset now at (name, t) under key.
func verifies(z *Zone, sigs []*dnswire.RR, name string, t dnswire.Type, key *dnssec.KeyPair) error {
	if len(sigs) != 1 {
		return fmt.Errorf("%s/%v: %d signatures, want 1", name, t, len(sigs))
	}
	return dnssec.VerifyRRSet(z.Lookup(name, t), sigs[0].Data.(*dnswire.RRSIG), key.DNSKEY(), testNow)
}

func TestSignPlansAndFirstReadProduces(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	// Apex SOA, NS, DNSKEY and three hosts' A; the delegation and its glue
	// are not signed.
	const want = 6
	if got := z.PlannedSigs(); got != want {
		t.Fatalf("planned %d signatures, want %d", got, want)
	}
	for _, name := range z.Names() {
		if n := filedSigs(z, name); n != 0 {
			t.Errorf("%s: %d signatures produced by Sign itself", name, n)
		}
	}
	log := recordEvents(z)
	first := z.Sigs("www.example.com", dnswire.TypeA)
	if err := verifies(z, first, "www.example.com", dnswire.TypeA, s.ZSK); err != nil {
		t.Fatal(err)
	}
	if z.PlannedSigs() != want-1 || filedSigs(z, "www.example.com") != 1 {
		t.Errorf("after one read: %d planned, %d filed at www", z.PlannedSigs(), filedSigs(z, "www.example.com"))
	}
	if again := z.Sigs("WWW.example.com.", dnswire.TypeA); len(again) != 1 || again[0] != first[0] {
		t.Error("the second read did not return the signature the first produced")
	}
	if err := verifies(z, z.Sigs("example.com", dnswire.TypeDNSKEY), "example.com", dnswire.TypeDNSKEY, s.KSK); err != nil {
		t.Errorf("DNSKEY RRset not signed by the KSK: %v", err)
	}
	if len(z.Sigs("sub.example.com", dnswire.TypeNS)) != 0 || len(z.Sigs("absent.example.com", dnswire.TypeA)) != 0 {
		t.Error("signature over a delegation or an absent name")
	}
	if len(*log) != 0 {
		t.Errorf("producing emitted events %+v", *log)
	}
	// The plan holds the window and keys of the moment Sign ran.
	s.Expiration = testNow.AddDate(-1, 0, 0)
	if err := verifies(z, z.Sigs("example.com", dnswire.TypeSOA), "example.com", dnswire.TypeSOA, s.ZSK); err != nil {
		t.Errorf("changing the Signer after Sign changed a planned signature: %v", err)
	}
}

func TestSignReportsAtPlanTime(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	zsk := *s.ZSK
	zsk.Algorithm = 250
	s.ZSK = &zsk
	if err := s.Sign(z); !errors.Is(err, dnssec.ErrUnsupportedAlgorithm) {
		t.Fatalf("Sign with a key that cannot sign: %v", err)
	}
	if z.PlannedSigs() != 0 {
		t.Errorf("a failed Sign left %d plans", z.PlannedSigs())
	}
	if err := s.SignSet(z, "www.example.com", dnswire.TypeA); !errors.Is(err, dnssec.ErrUnsupportedAlgorithm) {
		t.Errorf("SignSet with a key that cannot sign: %v", err)
	}
}

// TestPlansDroppedWithTheirSignatures: whatever removes a signature removes
// it planned or produced, and nothing brings it back.
func TestPlansDroppedWithTheirSignatures(t *testing.T) {
	const www, apex = "www.example.com", "example.com"
	// The six RRsets of TestSignPlansAndFirstReadProduces, and the NSEC at
	// the apex, the three hosts and the delegation.
	const all = 11
	other := newTestSigner(t)
	other.AddNSEC = true
	ops := []struct {
		name string
		do   func(z *Zone)
		// gone lists the (owner, covered) pairs the op leaves unsigned;
		// planned is what must still be planned right after it on a zone
		// nobody had read.
		gone    []rrKey
		planned int
	}{
		{"RemoveSigs", func(z *Zone) { z.RemoveSigs(www, dnswire.TypeA) },
			[]rrKey{{www, dnswire.TypeA}}, all - 1},
		{"Remove RRSIG", func(z *Zone) { z.Remove(www, dnswire.TypeRRSIG) },
			[]rrKey{{www, dnswire.TypeA}, {www, dnswire.TypeNSEC}}, all - 2},
		{"RemoveType RRSIG", func(z *Zone) { z.RemoveType(dnswire.TypeRRSIG) },
			[]rrKey{{www, dnswire.TypeA}, {apex, dnswire.TypeSOA}, {apex, dnswire.TypeDNSKEY}, {"sub.example.com", dnswire.TypeNSEC}}, 0},
		{"Unsign", Unsign,
			[]rrKey{{www, dnswire.TypeA}, {apex, dnswire.TypeSOA}, {apex, dnswire.TypeDNSKEY}}, 0},
	}
	for _, op := range ops {
		for _, read := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/read=%v", op.name, read), func(t *testing.T) {
				z := buildExampleZone(t)
				s := newTestSigner(t)
				s.AddNSEC = true
				if err := s.Sign(z); err != nil {
					t.Fatal(err)
				}
				if z.PlannedSigs() != all {
					t.Fatalf("fixture plans %d signatures", z.PlannedSigs())
				}
				if read {
					for _, k := range op.gone {
						if len(z.Sigs(k.name, k.typ)) != 1 {
							t.Fatalf("fixture: %s/%v unsigned", k.name, k.typ)
						}
					}
				}
				events := 0
				z.OnEvent(func(Event) { events++ })
				op.do(z)
				if events == 0 {
					t.Error("no event")
				}
				if !read && z.PlannedSigs() != op.planned {
					t.Errorf("%d signatures still planned, want %d", z.PlannedSigs(), op.planned)
				}
				for pass := 0; pass < 2; pass++ {
					for _, k := range op.gone {
						if sigs := z.Sigs(k.name, k.typ); len(sigs) != 0 {
							t.Errorf("pass %d: %s/%v still signed", pass, k.name, k.typ)
						}
					}
					z.Len() // produces whatever is left
				}
				owners := make(map[string]bool)
				z.RRSets(func(name string, _ dnswire.Type, _ []*dnswire.RR) { owners[name] = true })
				for _, name := range []string{www, apex, "ns1.example.com", "sub.example.com"} {
					if z.HasName(name) != owners[name] {
						t.Errorf("HasName(%s) = %v with RRsets present: %v", name, z.HasName(name), owners[name])
					}
				}
			})
		}
	}

	t.Run("second Sign", func(t *testing.T) {
		z := buildExampleZone(t)
		s := newTestSigner(t)
		s.AddNSEC = true
		if err := s.Sign(z); err != nil {
			t.Fatal(err)
		}
		z.Sigs(www, dnswire.TypeA) // one produced, the rest planned
		if err := other.Sign(z); err != nil {
			t.Fatal(err)
		}
		if z.PlannedSigs() != all {
			t.Errorf("%d signatures planned after re-signing, want %d", z.PlannedSigs(), all)
		}
		for _, rr := range z.Lookup(www, dnswire.TypeRRSIG) {
			if tag := rr.Data.(*dnswire.RRSIG).KeyTag; tag != other.ZSK.KeyTag() {
				t.Errorf("signature by key %d survived re-signing under key %d", tag, other.ZSK.KeyTag())
			}
		}
		if err := verifies(z, z.Sigs(apex, dnswire.TypeSOA), apex, dnswire.TypeSOA, other.ZSK); err != nil {
			t.Error(err)
		}
	})
}

func TestBumpSerialResignsSOA(t *testing.T) {
	const apex = "example.com"
	for _, read := range []bool{false, true} {
		z := buildExampleZone(t)
		s := newTestSigner(t)
		if err := s.Sign(z); err != nil {
			t.Fatal(err)
		}
		if read {
			if err := verifies(z, z.Sigs(apex, dnswire.TypeSOA), apex, dnswire.TypeSOA, s.ZSK); err != nil {
				t.Fatal(err)
			}
		}
		want := z.PlannedSigs()
		if read {
			want++ // the produced signature is replaced by a plan
		}
		z.BumpSerial()
		if z.PlannedSigs() != want {
			t.Errorf("read=%v: %d signatures planned after the bump, want %d", read, z.PlannedSigs(), want)
		}
		if err := verifies(z, z.Sigs(apex, dnswire.TypeSOA), apex, dnswire.TypeSOA, s.ZSK); err != nil {
			t.Errorf("read=%v: SOA signature after BumpSerial: %v", read, err)
		}
		// A clone is bumped under the same signer.
		c := z.Clone()
		c.BumpSerial()
		if err := verifies(c, c.Sigs(apex, dnswire.TypeSOA), apex, dnswire.TypeSOA, s.ZSK); err != nil {
			t.Errorf("read=%v: clone's SOA signature after BumpSerial: %v", read, err)
		}
	}

	// Nothing to re-sign: a zone never signed, one whose SOA signature was
	// removed, one unsigned again.
	unsigned := buildExampleZone(t)
	stripped, undone := buildExampleZone(t), buildExampleZone(t)
	s := newTestSigner(t)
	for _, z := range []*Zone{stripped, undone} {
		if err := s.Sign(z); err != nil {
			t.Fatal(err)
		}
	}
	stripped.RemoveSigs(apex, dnswire.TypeSOA)
	Unsign(undone)
	for i, z := range []*Zone{unsigned, stripped, undone} {
		z.BumpSerial()
		if sigs := z.Sigs(apex, dnswire.TypeSOA); len(sigs) != 0 {
			t.Errorf("zone %d: BumpSerial signed an unsigned SOA", i)
		}
	}
}

// raceFirstReads signs a zone of 60 hosts under apex and starts readers
// goroutines, each calling the read that reader makes of the zone, with an
// rng of its own, until stopped or a read returns an error, which fails the
// test. Meanwhile three passes remove the signatures of every third host,
// re-sign the next over a new address and bump the serial, so re-signing
// also replaces plans nobody read and signatures somebody did. When the readers have stopped, no host
// whose signatures were removed is signed, every other verifies, and so
// does the SOA, bumped once a host a pass. removed reports whether host i's
// signatures were removed before a read began. It returns the zone and how
// many signatures were planned once it was signed. The zone is the only
// lock the readers and the writer share — not even the test's own, which
// t.Failed and t.Helper take — so -race sees every unordered access.
func raceFirstReads(t *testing.T, apex string, readers int, reader func(z *Zone) func(rng *rand.Rand, removed func(i int) bool) error) (*Zone, int) {
	const hosts = 60
	z := New(apex)
	z.MustAdd(dnswire.NewRR(apex, 3600, &dnswire.SOA{MName: "ns1." + apex, RName: "admin." + apex, Serial: 1, Minimum: 300}))
	z.MustAdd(dnswire.NewRR(apex, 3600, &dnswire.NS{Host: "ns1." + apex}))
	for i := 0; i < hosts; i++ {
		a(t, z, raceHost(apex, i), "192.0.2.1")
	}
	s := newTestSigner(t)
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	planned := z.PlannedSigs()
	var removed [hosts]atomic.Bool
	var stop, failed atomic.Bool
	var wg sync.WaitGroup
	var reads atomic.Int64
	for r := 0; r < readers; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rng, read := rand.New(rand.NewSource(int64(r))), reader(z)
			for !stop.Load() && !failed.Load() {
				if err := read(rng, func(i int) bool { return removed[i].Load() }); err != nil {
					failed.Store(true)
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}(r)
	}
	for pass := 0; pass < 3; pass++ {
		for i := 0; i < hosts; i++ {
			switch h := raceHost(apex, i); i % 3 {
			case 0:
				z.RemoveSigs(h, dnswire.TypeA)
				removed[i].Store(true)
			case 1:
				z.Remove(h, dnswire.TypeA)
				z.MustAdd(dnswire.NewRR(h, 300, &dnswire.A{Addr: netip.AddrFrom4([4]byte{192, 0, 2, byte(10 + pass)})}))
				if err := s.SignSet(z, h, dnswire.TypeA); err != nil {
					t.Fatal(err)
				}
			}
			z.BumpSerial()
		}
		for before := reads.Load(); reads.Load() < before+64 && !failed.Load(); {
			runtime.Gosched() // let the readers at what this pass left
		}
	}
	stop.Store(true)
	wg.Wait()

	for i := 0; i < hosts; i++ {
		h := raceHost(apex, i)
		sigs := z.Sigs(h, dnswire.TypeA)
		if i%3 == 0 {
			if len(sigs) != 0 || z.signedLocked(h, dnswire.TypeA) {
				t.Errorf("%s: signed after RemoveSigs", h)
			}
		} else if err := verifies(z, sigs, h, dnswire.TypeA, s.ZSK); err != nil {
			t.Error(err)
		}
	}
	if err := verifies(z, z.Sigs(apex, dnswire.TypeSOA), apex, dnswire.TypeSOA, s.ZSK); err != nil {
		t.Error(err)
	}
	if got := z.SOA().Data.(*dnswire.SOA).Serial; got != 1+3*hosts {
		t.Errorf("serial %d after %d bumps", got, 3*hosts)
	}
	return z, planned
}

// raceHost is raceFirstReads's host i.
func raceHost(apex string, i int) string { return fmt.Sprintf("h%d.%s", i, apex) }

// TestConcurrentFirstReads: sixteen readers ask for overlapping signatures
// while a writer removes some, re-signs others and bumps the serial
// (raceFirstReads). No signature is ever filed twice, and none comes back
// once removed. Meaningful under -race.
func TestConcurrentFirstReads(t *testing.T) {
	const apex = "race.example"
	raceFirstReads(t, apex, 16, func(z *Zone) func(*rand.Rand, func(int) bool) error {
		return func(rng *rand.Rand, removed func(int) bool) error {
			i := rng.Intn(60)
			was, h := removed(i), raceHost(apex, i)
			switch n := len(z.Sigs(h, dnswire.TypeA)); {
			case n > 1:
				return fmt.Errorf("%s: %d signatures over one RRset", h, n)
			case was && n != 0:
				return fmt.Errorf("%s: signature back after its removal", h)
			}
			if n := len(z.Sigs(apex, dnswire.TypeSOA)); n != 1 {
				return fmt.Errorf("SOA: %d signatures", n)
			}
			return nil
		}
	})
}

// planBenchZone is a child zone as tldsim.Materialize builds it: SOA, NS and
// one A — with the DNSKEY RRset, four RRsets to sign.
func planBenchZone() *Zone {
	const apex = "bench.example"
	z := New(apex)
	z.MustAdd(dnswire.NewRR(apex, 3600, &dnswire.SOA{MName: "ns1.operator.example", RName: "hostmaster." + apex, Serial: 1, Minimum: 300}))
	z.MustAdd(dnswire.NewRR(apex, 3600, &dnswire.NS{Host: "ns1.operator.example"}))
	z.MustAdd(dnswire.NewRR("www."+apex, 300, &dnswire.A{Addr: netip.MustParseAddr("203.0.113.80")}))
	return z
}

// BenchmarkSignPlan is Sign on a four-RRset zone: strip, install keys,
// plan; no private-key operation.
func BenchmarkSignPlan(b *testing.B) {
	s := newTestSigner(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z := planBenchZone()
		if err := s.Sign(z); err != nil {
			b.Fatal(err)
		}
		if i == 0 && z.PlannedSigs() != 4 {
			b.Fatalf("planned %d signatures, want 4", z.PlannedSigs())
		}
	}
}

// BenchmarkFirstRead adds the one read the measurement makes of a child
// zone: the DNSKEY RRset's signature.
func BenchmarkFirstRead(b *testing.B) {
	s := newTestSigner(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		z := planBenchZone()
		if err := s.Sign(z); err != nil {
			b.Fatal(err)
		}
		if len(z.Sigs(z.Origin, dnswire.TypeDNSKEY)) != 1 || z.PlannedSigs() != 3 {
			b.Fatal("first read did not produce exactly the DNSKEY signature")
		}
	}
}

// BenchmarkSign is Sign with an NSEC chain over a zone of delegations, the
// shape regsec-server -sign -nsec signs a TLD in: each chain link's type
// bitmap reads one owner's types, so the cost grows with the owners, not
// with their square.
func BenchmarkSign(b *testing.B) {
	s := newTestSigner(b)
	s.AddNSEC = true
	for _, owners := range []int{1000, 4000, 16000} {
		b.Run(fmt.Sprintf("nsec/owners=%dk", owners/1000), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				z := New("bench")
				z.MustAdd(dnswire.NewRR("bench", 3600, &dnswire.SOA{MName: "ns1.registry.example", RName: "hostmaster.registry.example", Serial: 1, Minimum: 300}))
				z.MustAdd(dnswire.NewRR("bench", 3600, &dnswire.NS{Host: "ns1.registry.example"}))
				for d := 1; d < owners; d++ {
					z.MustAdd(dnswire.NewRR(fmt.Sprintf("d%d.bench", d), 3600, &dnswire.NS{Host: "ns1.operator.example"}))
				}
				b.StartTimer()
				if err := s.Sign(z); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
