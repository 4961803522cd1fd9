package tldsim_test

import (
	"bytes"
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
	"securepki.org/registrarsec/internal/zone"
)

// signedWorld is a small world where most domains are signed by the end of
// the window, so a sample exercises every branch of the per-domain build.
func signedWorld(tb testing.TB) *tldsim.World {
	tb.Helper()
	w, err := tldsim.BuildScenario(tldsim.GTLDIncentives, tldsim.WorldConfig{Scale: 1.0 / 4000, Seed: 5})
	if err != nil {
		tb.Fatal(err)
	}
	return w
}

// withProcs runs fn with GOMAXPROCS set to n.
func withProcs(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// zoneShape renders everything about a zone that does not depend on the
// keys drawn for it: every RRset in the zone's order, and within each the
// records in the order they were added, with key material reduced to what
// it covers.
func zoneShape(z *zone.Zone) []string {
	var out []string
	z.RRSets(func(name string, t dnswire.Type, rrs []*dnswire.RR) {
		for _, rr := range rrs {
			line := fmt.Sprintf("%s %d %v", name, rr.TTL, t)
			switch d := rr.Data.(type) {
			case *dnswire.RRSIG:
				line += fmt.Sprintf(" covers=%v labels=%d %d..%d", d.TypeCovered, d.Labels, d.Inception, d.Expiration)
			case *dnswire.DNSKEY:
				line += fmt.Sprintf(" flags=%d", d.Flags)
			case *dnswire.DS:
				line += fmt.Sprintf(" alg=%d digest=%d", d.Algorithm, d.DigestType)
			default:
				line += " " + rr.Data.String()
			}
			out = append(out, line)
		}
	})
	return out
}

// materializedShape collects the shape of every zone of a materialized day.
func materializedShape(t *testing.T, m *tldsim.Materialized, domains []tldsim.DomainState) map[string][]string {
	t.Helper()
	zoneAt := func(server, origin string) *zone.Zone {
		auth, ok := m.Net.Lookup(server).(*dnsserver.Authoritative)
		if !ok || auth.Zone(origin) == nil {
			t.Fatalf("no zone %q on %s", origin, server)
		}
		return auth.Zone(origin)
	}
	shapes := map[string][]string{".": zoneShape(zoneAt("a.root-servers.net", ""))}
	for tld, ns := range m.TLDServers {
		shapes[tld] = zoneShape(zoneAt(ns, tld))
	}
	for _, d := range domains {
		shapes[d.Name] = zoneShape(zoneAt(tldsim.NSHostOf(d.Operator), d.Name))
	}
	return shapes
}

// TestMaterializeIndependentOfWorkerCount holds Materialize to its contract
// that only the keys differ between a one-worker and an eight-worker build:
// every zone has the same RRsets with the same records in the same order,
// and a sweep of the day writes the same archive, byte for byte.
func TestMaterializeIndependentOfWorkerCount(t *testing.T) {
	world := signedWorld(t)
	domains := world.Sample(160, 9)
	signed := 0
	for _, d := range domains {
		if d.KeyDay <= simtime.End {
			signed++
		}
	}
	if signed < len(domains)/4 || signed == len(domains) {
		t.Fatalf("sample has %d signed of %d domains; the test needs both kinds", signed, len(domains))
	}

	shapes := make(map[int]map[string][]string)
	archives := make(map[int][]byte)
	for _, procs := range []int{1, 8} {
		withProcs(procs, func() {
			m, err := tldsim.Materialize(simtime.End, domains)
			if err != nil {
				t.Fatal(err)
			}
			shapes[procs] = materializedShape(t, m, domains)
			archives[procs] = sweepArchive(t, world)
		})
	}
	if len(shapes[1]) != len(shapes[8]) {
		t.Fatalf("%d zones with one worker, %d with eight", len(shapes[1]), len(shapes[8]))
	}
	for origin, want := range shapes[1] {
		got := shapes[8][origin]
		if len(got) != len(want) {
			t.Fatalf("zone %s: %d records with one worker, %d with eight", origin, len(want), len(got))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("zone %s record %d:\n one worker: %s\n eight:      %s", origin, i, want[i], got[i])
			}
		}
	}
	if !bytes.Equal(archives[1], archives[8]) {
		t.Error("sweep archive differs between one worker and eight")
	}
	if len(archives[1]) == 0 {
		t.Error("sweep wrote an empty archive")
	}
}

// childKind is the row of a materialized child in the bring-up accounting.
type childKind int

const (
	signedDSMatches childKind = iota
	signedBrokenDS
	signedNoDS
	unsignedGarbageDS
	unsignedNoDS
)

func kindOf(d *tldsim.DomainState, day simtime.Day) childKind {
	signed, ds := d.KeyDay <= day, d.DSDay <= day
	switch {
	case signed && ds && !d.BrokenDS:
		return signedDSMatches
	case signed && ds:
		return signedBrokenDS
	case signed:
		return signedNoDS
	case ds:
		return unsignedGarbageDS
	}
	return unsignedNoDS
}

// TestSweepProducesOnlyWhatItReads counts private-key operations by what
// they leave behind. Materialize builds no child zone: every one is still
// deferred on its operator's host, and stays so while the TLD servers answer
// every question the serve rig asks. What bring-up cost shows in the TLD
// zone: the RRSIG(DS) of a child with a DS, and a DS that digests the KSK
// its child serves once built — a key that had to exist when the DS was
// published. Two operations, one or none per child. After one sweep of the
// day — NS and DS at the registry, DNSKEY at the operator — every child is
// built, a signed one holding its two keys and having produced exactly its
// DNSKEY RRset's signature: four operations for a signed child behind a DS.
// Unsigned children plan nothing.
func TestSweepProducesOnlyWhatItReads(t *testing.T) {
	domains := signedWorld(t).Sample(160, 9)
	m, err := tldsim.Materialize(simtime.End, domains)
	if err != nil {
		t.Fatal(err)
	}
	var kinds [5]int
	signed := 0
	for i := range domains {
		kind := kindOf(&domains[i], simtime.End)
		kinds[kind]++
		if kind <= signedNoDS {
			signed++
		}
	}
	if signed*10 < len(domains)*4 || signed == len(domains) || kinds[signedDSMatches] == 0 || kinds[signedNoDS] == 0 || kinds[unsignedNoDS] == 0 {
		t.Fatalf("sample has %d signed of %d domains, by kind %v; the test needs about 60%% and each common kind", signed, len(domains), kinds)
	}
	host := func(d *tldsim.DomainState) *dnsserver.Authoritative {
		return m.Net.Lookup(tldsim.NSHostOf(d.Operator)).(*dnsserver.Authoritative)
	}
	tldZone := func(d *tldsim.DomainState) *zone.Zone {
		return m.Net.Lookup(m.TLDServers[d.TLD]).(*dnsserver.Authoritative).Zone(d.TLD)
	}
	deferred := func(stage string, want int) {
		t.Helper()
		hosts := make(map[*dnsserver.Authoritative]bool)
		n := 0
		for i := range domains {
			if h := host(&domains[i]); !hosts[h] {
				hosts[h] = true
				n += h.DeferredCount()
			}
		}
		if n != want {
			t.Fatalf("%s: %d child zones unbuilt, want %d", stage, n, want)
		}
	}
	dsSigs := func(d *tldsim.DomainState) (n int) {
		tldZone(d).Read(nil, func(r *zone.Reader) { n = len(r.AppendSigs(nil, d.Name, dnswire.TypeDS)) })
		return n
	}
	deferred("at bring-up", len(domains))
	for i := range domains {
		d := &domains[i]
		want := 0
		if d.DSDay <= simtime.End {
			want = 1
		}
		if got := dsSigs(d); got != want {
			t.Fatalf("at bring-up: %s has %d RRSIG(DS) in its TLD zone, want %d", d.Name, got, want)
		}
	}

	// The serve rig's questions, asked of the registries.
	ctx := context.Background()
	for _, d := range domains {
		for _, name := range []string{d.Name, "www." + d.Name} {
			for _, qtype := range []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeSOA, dnswire.TypeA} {
				for _, do := range []bool{false, true} {
					q := dnswire.NewQuery(1, name, qtype)
					q.SetEDNS(dnswire.ReplyUDPPayload, do)
					if _, err := m.Net.Exchange(ctx, m.TLDServers[d.TLD], q); err != nil {
						t.Fatal(err)
					}
				}
			}
		}
	}
	deferred("after serving the registries", len(domains))

	scanner, err := scan.New(scan.Config{
		Exchange: m.Net, TLDServers: m.TLDServers, Workers: 8,
		Clock: func() simtime.Day { return simtime.End },
	})
	if err != nil {
		t.Fatal(err)
	}
	targets := make([]scan.Target, len(domains))
	for i, d := range domains {
		targets[i] = scan.Target{Domain: d.Name, TLD: d.TLD}
	}
	live, _, err := scanner.ScanDay(context.Background(), simtime.End, targets)
	if err != nil {
		t.Fatal(err)
	}
	withKeys := 0
	for i := range live.Records {
		if live.Records[i].HasDNSKEY {
			if !live.Records[i].HasRRSIG {
				t.Errorf("%s: DNSKEY answer without its signature", live.Records[i].Domain)
			}
			withKeys++
		}
	}
	if withKeys != signed {
		t.Errorf("the sweep saw DNSKEYs at %d domains, the world signs %d", withKeys, signed)
	}
	deferred("after the sweep", 0)

	bringUp := [5]int{signedDSMatches: 2, signedBrokenDS: 1, signedNoDS: 0, unsignedGarbageDS: 1, unsignedNoDS: 0}
	swept := [5]int{signedDSMatches: 4, signedBrokenDS: 4, signedNoDS: 3, unsignedGarbageDS: 1, unsignedNoDS: 0}
	for i := range domains {
		d := &domains[i]
		kind := kindOf(d, simtime.End)
		child := host(d).Zone(d.Name)
		// Read before anything produces the rest: a signed child plans four
		// signatures, of which the sweep produced the DNSKEY RRset's.
		wantPlanned, wantLen := 0, 3
		if d.KeyDay <= simtime.End {
			wantPlanned, wantLen = 3, 9
		}
		planned := child.PlannedSigs()
		if planned != wantPlanned {
			t.Fatalf("after the sweep: %s has %d signatures planned, want %d", d.Name, planned, wantPlanned)
		}
		var ksks []*dnswire.DNSKEY
		keys, sigs := 0, 0
		child.RRSets(func(_ string, _ dnswire.Type, rrs []*dnswire.RR) {
			for _, rr := range rrs {
				switch data := rr.Data.(type) {
				case *dnswire.DNSKEY:
					keys++
					if data.Flags == dnswire.FlagsKSK {
						ksks = append(ksks, data)
					}
				case *dnswire.RRSIG:
					sigs++
				}
			}
		})
		var dss []*dnswire.DS
		for _, rr := range tldZone(d).Lookup(d.Name, dnswire.TypeDS) {
			dss = append(dss, rr.Data.(*dnswire.DS))
		}
		kskForDS := 0
		if dnssec.MatchAnyDS(d.Name, dss, ksks) {
			kskForDS = 1
		}
		if got := dsSigs(d) + kskForDS; got != bringUp[kind] {
			t.Fatalf("%s (kind %d) cost %d private-key operations at bring-up, want %d", d.Name, kind, got, bringUp[kind])
		}
		if got := dsSigs(d) + keys + sigs - planned; got != swept[kind] {
			t.Fatalf("%s (kind %d) cost %d private-key operations after the sweep, want %d", d.Name, kind, got, swept[kind])
		}
		// SOA, NS, A; DNSKEY (2) and the four RRSIGs when signed: counting
		// produced the three nobody read.
		if got := child.Len(); got != wantLen {
			t.Fatalf("%s: %d records, want %d", d.Name, got, wantLen)
		}
	}
}

// sweepArchive sweeps a sample of the world over two days through the
// chunked pipeline — every chunk a Materialize call — and returns the
// archive's bytes.
func sweepArchive(t *testing.T, world *tldsim.World) []byte {
	t.Helper()
	spec := &dsweep.WorldSpec{ScaleDiv: 4000, Seed: 5, Sample: 120}
	setup := spec.BuildStreamWith(world, nil, 0)
	path := filepath.Join(t.TempDir(), "sweep.tsv")
	aw, err := dataset.NewArchiveWriter(path)
	if err != nil {
		t.Fatal(err)
	}
	rs := &scan.ResumableSweep{Shards: 2, Chunk: 32, StreamSetup: setup}
	days := []simtime.Day{simtime.End - 30, simtime.End}
	if err := rs.RunStream(context.Background(), days, func(_ simtime.Day, sw *dataset.SpillWriter) error {
		return aw.Section(sw)
	}); err != nil {
		aw.Abort()
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	return archivetest.Read(t, path)
}

// BenchmarkMaterialize measures one chunk-sized Materialize call on an
// unsigned population and on one that is about 60% signed, at the ambient
// GOMAXPROCS (run with -cpu 1,N to see what the worker pool buys). The
// +dnskey variant then asks every child for its DNSKEY RRset under DO, from
// GOMAXPROCS goroutines, as a sweep does: it builds every child zone and
// produces the signature the sweep reads.
func BenchmarkMaterialize(b *testing.B) {
	baseline, err := tldsim.Build(tldsim.WorldConfig{Scale: 1.0 / 4000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	unsigned := baseline.Sample(1024, 9)
	for i := range unsigned {
		unsigned[i].KeyDay, unsigned[i].DSDay = simtime.End+1, simtime.End+1
	}
	signed := signedWorld(b).Sample(1024, 9)
	for _, bc := range []struct {
		name    string
		domains []tldsim.DomainState
		dnskey  bool
	}{
		{"signed=0%", unsigned, false},
		{"signed=60%", signed, false},
		{"signed=60%/+dnskey", signed, true},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m, err := tldsim.Materialize(simtime.End, bc.domains)
				if err != nil {
					b.Fatal(err)
				}
				if bc.dnskey {
					askDNSKEYs(b, m, bc.domains)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(len(bc.domains)), "us/domain")
		})
	}
}

// askDNSKEYs sends one DO DNSKEY query per domain to its operator's server
// through m's network, from GOMAXPROCS goroutines.
func askDNSKEYs(b *testing.B, m *tldsim.Materialized, domains []tldsim.DomainState) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := runtime.GOMAXPROCS(0); w > 0; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(domains); i = int(next.Add(1)) - 1 {
				q := dnswire.NewQuery(uint16(i), domains[i].Name, dnswire.TypeDNSKEY)
				q.SetEDNS(dnswire.ReplyUDPPayload, true)
				if _, err := m.Net.Exchange(context.Background(), tldsim.NSHostOf(domains[i].Operator), q); err != nil {
					b.Error(err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
