package tldsim

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// TestSavedWorldGoldenDigests pins the bytes of a saved world — generator
// draws, intern order, section framing, CRCs — to checked-in digests.
// Worker-count invariance says two builds agree with each other; this says
// they agree with every world file the same generator version left on
// disk. (The file format alone is pinned by TestWorldV1FileRoundTrips.)
func TestSavedWorldGoldenDigests(t *testing.T) {
	golden := readGoldenDigests(t, filepath.Join("testdata", "world_digests.txt"))
	cases := []struct {
		key   string
		build func(workers int) (*World, error)
	}{
		{"build-divisor4000-seed1", func(workers int) (*World, error) {
			return Build(WorldConfig{Scale: 1.0 / 4000, Seed: 1, Workers: workers})
		}},
		{"build-divisor4000-seed7", func(workers int) (*World, error) {
			return Build(WorldConfig{Scale: 1.0 / 4000, Seed: 7, Workers: workers})
		}},
		{"gtld-incentives-divisor4000-seed1", func(workers int) (*World, error) {
			return BuildScenario(GTLDIncentives, WorldConfig{Scale: 1.0 / 4000, Seed: 1, Workers: workers})
		}},
	}
	for _, tc := range cases {
		want, ok := golden[tc.key]
		if !ok {
			t.Errorf("%s: no golden digest checked in", tc.key)
		}
		for _, workers := range []int{1, 8} {
			w, err := tc.build(workers)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "world.rscw")
			if err := w.Save(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s at %d workers: saved world hashes to %s, golden %s — the world format or the generator drifted",
					tc.key, workers, got, want)
			}
		}
	}
}

// TestWorldQueryGoldenDigests pins what the world answers, not only how it
// is stored: the Table 1 day's snapshot (as TSV) and OVH's daily series,
// through the index at Workers 1 and 8 and through the record-at-a-time
// reference implementations over the reference population, so neither side
// can drift and take the other along.
func TestWorldQueryGoldenDigests(t *testing.T) {
	golden := readGoldenDigests(t, filepath.Join("testdata", "world_digests.txt"))
	const operator = "ovh.net"
	for _, seed := range []int64{1, 7} {
		cfg := WorldConfig{Scale: 1.0 / 4000, Seed: seed}
		snapKey := fmt.Sprintf("snapshot-end-divisor4000-seed%d", seed)
		seriesKey := fmt.Sprintf("series-%s-divisor4000-seed%d", operator, seed)
		check := func(who, key, got string) {
			t.Helper()
			if want, ok := golden[key]; !ok {
				t.Errorf("%s: no golden digest checked in", key)
			} else if got != want {
				t.Errorf("%s via %s hashes to %s, golden %s", key, who, got, want)
			}
		}
		for _, workers := range []int{1, 8} {
			c := cfg
			c.Workers = workers
			w, err := Build(c)
			if err != nil {
				t.Fatal(err)
			}
			who := fmt.Sprintf("the index at %d workers", workers)
			check(who, snapKey, snapshotDigest(t, w.Index().Snapshot(simtime.End)))
			check(who, seriesKey, seriesDigest(w.Index().Series(operator, "", simtime.GTLDStart, simtime.End, 1)))
		}
		ref := referenceDomains(t, cfg)
		check("the reference projection", snapKey, snapshotDigest(t, referenceSnapshot(ref, simtime.End)))
		check("the reference scan", seriesKey, seriesDigest(referenceSeries(ref, operator, "", simtime.GTLDStart, simtime.End, 1)))
	}
}

// snapshotDigest hashes the snapshot as a header line and one line per
// record with every field spelled out: what the world answers, apart from
// how an archive line abbreviates it.
func snapshotDigest(t *testing.T, snap *dataset.Snapshot) string {
	t.Helper()
	h := sha256.New()
	fmt.Fprintf(h, "#snapshot\t%s\t%d\n", snap.Day, len(snap.Records))
	for _, r := range snap.Records {
		status := "ok"
		if r.Failed {
			status = r.FailReason
		}
		fmt.Fprintf(h, "%s\t%s\t%s\t%s\t%t\t%t\t%t\t%t\t%s\n",
			r.Domain, r.TLD, r.Operator, strings.Join(r.NSHosts, ","),
			r.HasDNSKEY, r.HasRRSIG, r.HasDS, r.ChainValid, status)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// seriesDigest hashes one "day total dnskey ds full" line per point.
func seriesDigest(pts []colstore.SeriesPoint) string {
	h := sha256.New()
	for _, p := range pts {
		fmt.Fprintf(h, "%d\t%d\t%d\t%d\t%d\n", int(p.Day), p.Total, p.WithDNSKEY, p.WithDS, p.Full)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// readGoldenDigests parses "key sha256" lines; '#' starts a comment. The
// file's "generator" line must name the generator the digests are checked
// against: digests of one generator version say nothing about another, and
// a drift within a version is not repaired by hashing again.
func readGoldenDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[key] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if got := out["generator"]; got != generatorVersion {
		t.Fatalf("%s was computed under generator %q, this is %q: new digests need a new generatorVersion, and a new generatorVersion new digests",
			path, got, generatorVersion)
	}
	return out
}

// worldV1Fingerprint is what the v1 generator's Fingerprint gave
// testdata/world-v1.rscw's config (divisor 400000, seed 1): the file's
// recorded provenance and its name in a v1 world cache.
const worldV1Fingerprint = "cdeda39cb3898f5c"

// TestWorldV1FileRoundTrips pins the world file format by itself, apart
// from what any generator draws: testdata/world-v1.rscw is a divisor-400000
// world saved by the v1 generator, and it must keep loading, answering and
// re-saving to the same bytes whatever later generators produce.
func TestWorldV1FileRoundTrips(t *testing.T) {
	path := filepath.Join("testdata", "world-v1.rscw")
	w, meta, err := LoadWorld(path)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	wantMeta := map[string]string{"fingerprint": worldV1Fingerprint, "scale": "2.5e-06", "seed": "1"}
	if !reflect.DeepEqual(meta, wantMeta) {
		t.Errorf("meta %v, want %v", meta, wantMeta)
	}
	if w.Len() != 370 {
		t.Fatalf("%d rows, want 370", w.Len())
	}
	day := func(s string) simtime.Day {
		d, err := simtime.Parse(s)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	for i, want := range map[int]DomainState{
		0: {Name: "d0000000-domaincontro.com", TLD: "com", Operator: "domaincontrol.com", Registrar: "GoDaddy",
			Created: day("2013-11-27"), KeyDay: simtime.Never, DSDay: simtime.Never},
		369: {Name: "d0000369-tail0001seho.se", TLD: "se", Operator: "tail0001.se-hosting.example",
			Created: day("2014-08-10"), KeyDay: simtime.Never, DSDay: simtime.Never},
	} {
		if got := w.DomainAt(i); got != want {
			t.Errorf("row %d is %+v, want %+v", i, got, want)
		}
	}
	wantOverview := []colstore.TLDOverview{
		{TLD: "com", Domains: 295, PctDNSKEY: 300.0 / 295, PctFull: 300.0 / 295},
		{TLD: "net", Domains: 34},
		{TLD: "org", Domains: 24, PctDNSKEY: 100.0 / 24, PctFull: 100.0 / 24},
		{TLD: "nl", Domains: 14, PctDNSKEY: 900.0 / 14, PctFull: 800.0 / 14},
		{TLD: "se", Domains: 3, PctDNSKEY: 100.0 / 3, PctFull: 100.0 / 3},
	}
	if got := w.Index().Overview(simtime.End, AllTLDs); !reflect.DeepEqual(got, wantOverview) {
		t.Errorf("overview %+v, want %+v", got, wantOverview)
	}
	onDisk, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := w.Index().Save(&resaved, meta); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), onDisk) {
		t.Errorf("the loaded index re-saves to %d bytes that differ from the file's %d: the world format drifted",
			resaved.Len(), len(onDisk))
	}
}
