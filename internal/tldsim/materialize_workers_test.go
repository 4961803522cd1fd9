package tldsim_test

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"securepki.org/registrarsec/internal/dataset"
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

// TestSweepProducesOnlyWhatItReads counts private-key operations by what
// they leave behind: a materialized signed child has its four signatures
// planned and none produced, and after one sweep of the day — NS and DS at
// the registry, DNSKEY at the operator — exactly the DNSKEY RRset's has been
// produced. Unsigned children plan nothing.
func TestSweepProducesOnlyWhatItReads(t *testing.T) {
	domains := signedWorld(t).Sample(160, 9)
	m, err := tldsim.Materialize(simtime.End, domains)
	if err != nil {
		t.Fatal(err)
	}
	child := func(d *tldsim.DomainState) *zone.Zone {
		return m.Net.Lookup(tldsim.NSHostOf(d.Operator)).(*dnsserver.Authoritative).Zone(d.Name)
	}
	planned := func(stage string, wantSigned int) (signed int) {
		t.Helper()
		for i := range domains {
			d := &domains[i]
			want := 0
			if d.KeyDay <= simtime.End {
				want = wantSigned
				signed++
			}
			if got := child(d).PlannedSigs(); got != want {
				t.Fatalf("%s: %s has %d signatures planned, want %d", stage, d.Name, got, want)
			}
		}
		return signed
	}
	signed := planned("before the sweep", 4)
	if signed*10 < len(domains)*4 || signed == len(domains) {
		t.Fatalf("sample has %d signed of %d domains; the test needs about 60%%", signed, len(domains))
	}

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
	planned("after the sweep", 3)
	for i := range domains {
		// SOA, NS, A; DNSKEY (2) and the four RRSIGs when signed: counting
		// produces the three nobody read.
		want := 3
		if domains[i].KeyDay <= simtime.End {
			want = 9
		}
		if got := child(&domains[i]).Len(); got != want {
			t.Fatalf("%s: %d records, want %d", domains[i].Name, got, want)
		}
	}
}

// sweepArchive sweeps a sample of the world over two days through the
// chunked pipeline — every chunk a Materialize call — and returns the
// archive's bytes.
func sweepArchive(t *testing.T, world *tldsim.World) []byte {
	t.Helper()
	spec := &dsweep.WorldSpec{ScaleDiv: 4000, Seed: 5, Sample: 120}
	setup := spec.BuildStreamWith(world, nil, 0, nil)
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
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// BenchmarkMaterialize measures one chunk-sized Materialize call on an
// unsigned population and on one that is about 60% signed, at the ambient
// GOMAXPROCS (run with -cpu 1,N to see what the worker pool buys).
func BenchmarkMaterialize(b *testing.B) {
	baseline, err := tldsim.Build(tldsim.WorldConfig{Scale: 1.0 / 4000, Seed: 5})
	if err != nil {
		b.Fatal(err)
	}
	unsigned := baseline.Sample(1024, 9)
	for i := range unsigned {
		unsigned[i].KeyDay, unsigned[i].DSDay = simtime.End+1, simtime.End+1
	}
	for _, bc := range []struct {
		name    string
		domains []tldsim.DomainState
	}{
		{"signed=0%", unsigned},
		{"signed=60%", signedWorld(b).Sample(1024, 9)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := tldsim.Materialize(simtime.End, bc.domains); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Microseconds())/float64(b.N)/float64(len(bc.domains)), "us/domain")
		})
	}
}
