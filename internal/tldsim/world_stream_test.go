package tldsim

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/simtime"
)

// TestStreamingBuildWorkerInvariance is the core determinism property of
// the sharded pipeline: serial, 2-worker, and 8-worker streaming builds
// of the same seed must serialize to byte-identical world files.
func TestStreamingBuildWorkerInvariance(t *testing.T) {
	cfg := WorldConfig{Scale: 1.0 / 5000, Seed: 1234}
	var want []byte
	for _, workers := range []int{1, 2, 8} {
		var w *World
		var err error
		withGOMAXPROCS(workers, func() { w, err = Build(cfg) })
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.Index().Save(&buf, map[string]string{"fingerprint": cfg.Fingerprint()}); err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = buf.Bytes()
			continue
		}
		if !bytes.Equal(want, buf.Bytes()) {
			t.Fatalf("%d-worker build serialized differently from the serial build (%d vs %d bytes)",
				workers, len(buf.Bytes()), len(want))
		}
	}
}

// TestStreamingMatchesLegacy holds the parallel build equal to the
// reference population sampled one domain at a time from the same
// per-cohort streams (oracle_test.go), domain for domain and query for
// query.
func TestStreamingMatchesLegacy(t *testing.T) {
	cfg := WorldConfig{Scale: 1.0 / 2000, Seed: 77}
	stream, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := referenceDomains(t, cfg)
	if stream.Len() != len(ref) {
		t.Fatalf("population sizes differ: built %d, reference %d", stream.Len(), len(ref))
	}
	for i := range ref {
		if s := stream.DomainAt(i); s != ref[i] {
			t.Fatalf("domain %d differs:\nbuilt     %+v\nreference %+v", i, s, ref[i])
		}
	}
	for _, day := range []simtime.Day{simtime.GTLDStart, simtime.End} {
		got := stream.Index().Snapshot(day)
		want := referenceSnapshot(ref, day)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Index().Snapshot(%v) diverges from the reference projection", day)
		}
		gotOv := stream.Index().Overview(day, AllTLDs)
		wantOv := analysis.Overview(want, AllTLDs)
		if !reflect.DeepEqual(gotOv, wantOv) {
			t.Fatalf("Overview(%v) diverges: %v vs %v", day, gotOv, wantOv)
		}
	}
	for _, op := range []string{"ovh.net", "cloudflare.com", "tail0000.com-hosting.example"} {
		got := stream.Index().Series(op, "", simtime.GTLDStart, simtime.End, 30)
		want := referenceSeries(ref, op, "", simtime.GTLDStart, simtime.End, 30)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Series(%s) diverges from the reference scan", op)
		}
	}
	// Samples must coincide too: the sweep pipeline scans identical
	// domains however the population was indexed.
	if !reflect.DeepEqual(stream.Sample(200, 7), worldFromDomains(ref).Sample(200, 7)) {
		t.Fatal("Sample diverges between the built world and the reference population")
	}
}

// TestWorldSaveLoadRoundTrip drives the full persistence cycle: a saved
// world re-loads with every query result intact, through both the mmap
// and the copying loader.
func TestWorldSaveLoadRoundTrip(t *testing.T) {
	cfg := WorldConfig{Scale: 1.0 / 5000, Seed: 5}
	w, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "world.rscw")
	if err := w.Save(path); err != nil {
		t.Fatal(err)
	}
	loaded, meta, err := LoadWorld(path)
	if err != nil {
		t.Fatal(err)
	}
	defer loaded.Close()
	if meta["fingerprint"] != cfg.Fingerprint() {
		t.Errorf("fingerprint %q, want %q", meta["fingerprint"], cfg.Fingerprint())
	}
	if loaded.Len() != w.Len() {
		t.Fatalf("loaded %d domains, want %d", loaded.Len(), w.Len())
	}
	for _, i := range []int{0, 1, w.Len() / 2, w.Len() - 1} {
		if got, want := loaded.DomainAt(i), w.DomainAt(i); got != want {
			t.Fatalf("domain %d differs after round trip:\nloaded %+v\nbuilt  %+v", i, got, want)
		}
	}
	if !reflect.DeepEqual(loaded.Index().Snapshot(simtime.End), w.Index().Snapshot(simtime.End)) {
		t.Fatal("snapshot diverges after round trip")
	}
	series := func(w *World) []colstore.SeriesPoint {
		return w.Index().Series("ovh.net", "", simtime.GTLDStart, simtime.End, 30)
	}
	if !reflect.DeepEqual(series(loaded), series(w)) {
		t.Fatal("series diverges after round trip")
	}
	if !reflect.DeepEqual(loaded.Index().DomainsByRegistrar(GTLDs...), w.Index().DomainsByRegistrar(GTLDs...)) {
		t.Fatal("registrar tally diverges after round trip")
	}
}

// TestBuildCached exercises the build-once/load-many path: a second call
// with the same config must hit the cache file, and a different seed must
// build a different file.
func TestBuildCached(t *testing.T) {
	dir := t.TempDir()
	cfg := WorldConfig{Scale: 1.0 / 5000, Seed: 8}
	a, err := BuildCached(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "world-*.rscw"))
	if len(files) != 1 {
		t.Fatalf("cache holds %d files after first build, want 1: %v", len(files), files)
	}
	info1, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCached(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	info2, err := os.Stat(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if !info2.ModTime().Equal(info1.ModTime()) || info2.Size() != info1.Size() {
		t.Error("second BuildCached rewrote the cache file instead of loading it")
	}
	if a.Len() != b.Len() {
		t.Fatalf("cached world has %d domains, built world %d", b.Len(), a.Len())
	}
	if !reflect.DeepEqual(a.Index().Snapshot(simtime.End), b.Index().Snapshot(simtime.End)) {
		t.Fatal("cached world snapshot diverges from built world")
	}
	// Scenario derivation needs cohorts, which BuildCached re-plans.
	if len(b.Cohorts) == 0 {
		t.Error("cached world has no cohorts")
	}

	other := cfg
	other.Seed = 9
	if _, err := BuildCached(dir, other); err != nil {
		t.Fatal(err)
	}
	files, _ = filepath.Glob(filepath.Join(dir, "world-*.rscw"))
	if len(files) != 2 {
		t.Fatalf("cache holds %d files after second seed, want 2", len(files))
	}

	// A corrupt cache entry is rebuilt, not trusted.
	archivetest.Write(t, files[0], []byte("garbage"))
	archivetest.Write(t, files[1], []byte("garbage"))
	c, err := BuildCached(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if c.Len() != a.Len() {
		t.Fatalf("rebuild after corruption has %d domains, want %d", c.Len(), a.Len())
	}
}

// TestBuildCachedIgnoresGeneratorV1Files: the cache key carries the
// generator version, so a world the v1 generator left in the directory
// (testdata/world-v1.rscw, under the name v1 gave that config) is a miss
// that stays where it is, and the same bytes under today's name are
// rebuilt over, not served.
func TestBuildCachedIgnoresGeneratorV1Files(t *testing.T) {
	v1File := archivetest.Read(t, filepath.Join("testdata", "world-v1.rscw"))
	cfg := WorldConfig{Scale: 1.0 / 400000, Seed: 1}
	fresh, err := Build(cfg)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	v1Path := filepath.Join(dir, "world-"+worldV1Fingerprint+".rscw")
	v2Path := filepath.Join(dir, "world-"+cfg.Fingerprint()+".rscw")
	if v1Path == v2Path {
		t.Fatal("the cache key did not change with the generator")
	}
	for _, path := range []string{v1Path, v2Path} {
		archivetest.Write(t, path, v1File)
	}
	w, err := BuildCached(dir, cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !reflect.DeepEqual(w.Index().Snapshot(simtime.End), fresh.Index().Snapshot(simtime.End)) {
		t.Error("BuildCached served something other than a fresh build")
	}
	if left, err := os.ReadFile(v1Path); err != nil || !bytes.Equal(left, v1File) {
		t.Errorf("the v1 generator's cache file was touched (%v)", err)
	}
	rebuilt, meta, err := LoadWorld(v2Path)
	if err != nil {
		t.Fatal(err)
	}
	defer rebuilt.Close()
	if meta["fingerprint"] != cfg.Fingerprint() {
		t.Errorf("the cache entry was not rebuilt: it records fingerprint %q", meta["fingerprint"])
	}
}

// TestFingerprintCoversScaleAndSeed: the cache key moves with each of the
// two config fields, and only with them: a zero scale is the default one.
func TestFingerprintCoversScaleAndSeed(t *testing.T) {
	a := WorldConfig{Scale: 1.0 / 5000, Seed: 3}
	for _, other := range []WorldConfig{{Scale: 1.0 / 5000, Seed: 4}, {Scale: 1.0 / 4000, Seed: 3}} {
		if a.Fingerprint() == other.Fingerprint() {
			t.Errorf("%+v and %+v share a fingerprint", a, other)
		}
	}
	if (WorldConfig{Seed: 3}).Fingerprint() != (WorldConfig{Scale: 1.0 / 1000, Seed: 3}).Fingerprint() {
		t.Error("a zero scale and the default scale fingerprint differently")
	}
}

// withGOMAXPROCS runs f with GOMAXPROCS n, the size of the world build's
// worker pool, and restores the previous value. Tests that call it must
// not run in parallel.
func withGOMAXPROCS(n int, f func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	f()
}
