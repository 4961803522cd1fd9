package zone

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/dnswire"
)

// TestConcurrentFirstReadsThroughView is TestConcurrentFirstReads for the
// view an answer is rendered from: eight readers collect, in one pass each,
// an RRset, its signature, the SOA's and everything at the owner, while a
// writer removes signatures, re-signs and bumps the serial and the passes'
// needs are produced under the write lock between them. What a completed
// Read leaves is the result of its last pass alone; no signature is filed
// twice or comes back once removed; and what is left at the end verifies.
func TestConcurrentFirstReadsThroughView(t *testing.T) {
	const apex = "view.example"
	var voided atomic.Int64
	z, planned := raceFirstReads(t, apex, 8, func(z *Zone) func(*rand.Rand, func(int) bool) error {
		var view Reader
		var set, sigs, soaSigs, all []*dnswire.RR
		return func(rng *rand.Rand, removed func(int) bool) error {
			i := rng.Intn(60)
			was, h := removed(i), raceHost(apex, i)
			passes := 0
			z.Read(&view, func(r *Reader) {
				passes++
				set = append(set[:0], r.RRSet(h, dnswire.TypeA)...)
				sigs = r.AppendSigs(sigs[:0], h, dnswire.TypeA)
				soaSigs = r.AppendSigs(soaSigs[:0], apex, dnswire.TypeSOA)
				all = r.AppendAll(all[:0], h, i%2 == 0)
			})
			voided.Add(int64(passes - 1))
			switch {
			case len(set) > 1 || len(sigs) > 1:
				return fmt.Errorf("%s: %d records under %d signatures", h, len(set), len(sigs))
			case was && len(sigs) != 0:
				return fmt.Errorf("%s: signature back after its removal", h)
			case len(soaSigs) != 1:
				return fmt.Errorf("SOA: %d signatures", len(soaSigs))
			case i%2 == 0 && len(all) != len(set)+len(sigs), i%2 == 1 && len(all) != len(set):
				return fmt.Errorf("%s: %d records in all, %d in the A RRset, %d signatures", h, len(all), len(set), len(sigs))
			}
			return nil
		}
	})
	if voided.Load() == 0 || z.PlannedSigs() >= planned {
		t.Errorf("no pass met a plan: %d voided, %d of %d signatures still planned", voided.Load(), z.PlannedSigs(), planned)
	}
}

// TestReadWithAKeyThatFails: a planned signature whose key fails reads as
// absent — Read ends, the plan stays for the next reader — and is produced
// once the key works again.
func TestReadWithAKeyThatFails(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	planned := z.PlannedSigs()
	alg := s.ZSK.Algorithm
	s.ZSK.Algorithm = 250 // the plans hold this key
	passes := 0
	var sigs, all []*dnswire.RR
	read := func(r *Reader) {
		passes++
		sigs = r.AppendSigs(nil, "www.example.com", dnswire.TypeA)
		all = r.RRSet("www.example.com", dnswire.TypeRRSIG)
	}
	z.Read(nil, read)
	if len(sigs) != 0 || len(all) != 0 || passes != 2 || z.PlannedSigs() != planned {
		t.Errorf("with a failing key: %d signatures, %d enumerated, %d passes, %d of %d plans left",
			len(sigs), len(all), passes, z.PlannedSigs(), planned)
	}
	s.ZSK.Algorithm = alg
	z.Read(nil, read)
	if err := verifies(z, sigs, "www.example.com", dnswire.TypeA, s.ZSK); err != nil || len(all) == 0 {
		t.Errorf("with the key restored: %v, %d enumerated", err, len(all))
	}
}

// TestDenialOrderKeptAcrossReads: Before answers from owner lists that are
// built by the first denial after an NSEC or NSEC3 RRset appeared or
// disappeared and by no other: not by a later read, and not by a mutation
// that leaves the chain's owners as they were.
func TestDenialOrderKeptAcrossReads(t *testing.T) {
	z := buildExampleZone(t)
	s := newTestSigner(t)
	s.AddNSEC = true
	if err := s.Sign(z); err != nil {
		t.Fatal(err)
	}
	before := func(name string) (owner string) {
		z.Read(nil, func(r *Reader) { owner = r.Before(dnswire.TypeNSEC, name) })
		return owner
	}
	order := func() uintptr { return reflect.ValueOf(z.denial).Pointer() }
	owners := z.Names() // every name of the fixture owns an NSEC but the glue
	for i, name := range owners {
		if name == "ns1.sub.example.com" {
			owners = append(owners[:i:i], owners[i+1:]...)
		}
	}
	if z.denial != nil {
		t.Fatal("the order was built before any denial")
	}
	for i, name := range owners {
		if got, want := before("0."+name), name; got != want {
			t.Errorf("before 0.%s: %q, want %q", name, got, want)
		}
		if got, want := before(name), owners[(i+len(owners)-1)%len(owners)]; got != want {
			t.Errorf("before %s: %q, want %q", name, got, want)
		}
	}
	built := order()
	a(t, z, "www.example.com", "192.0.2.200") // no owner of the chain comes or goes
	z.BumpSerial()
	if before("zzz.example.com"); order() != built {
		t.Error("the order was rebuilt although no NSEC RRset appeared or disappeared")
	}
	z.Remove("ns2.example.com", dnswire.TypeNSEC)
	if z.denial != nil {
		t.Error("the order outlived an NSEC RRset")
	}
	if got := before("0.ns2.example.com"); got != "ns1.example.com" {
		t.Errorf("before 0.ns2.example.com, ns2 owning no NSEC any more: %q", got)
	}
	if len(z.denial[dnswire.TypeNSEC3]) != 0 {
		t.Error("NSEC3 owners in an NSEC zone")
	}
}
