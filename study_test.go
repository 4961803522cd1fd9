package registrarsec

import (
	"bytes"
	"context"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/logtest"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// testStudyOnce shares one full study across the root-package tests.
var (
	tsOnce  sync.Once
	tsStudy *Study
	tsErr   error
)

func testStudy(t *testing.T) *Study {
	t.Helper()
	tsOnce.Do(func() {
		tsStudy, tsErr = NewStudy(Options{Scale: 1.0 / 2000, Seed: 3})
	})
	if tsErr != nil {
		t.Fatal(tsErr)
	}
	return tsStudy
}

func TestStudyTable1(t *testing.T) {
	s := testStudy(t)
	rows := Table1(s.World.Index())
	if len(rows) != 5 {
		t.Fatalf("Table 1 rows: %d", len(rows))
	}
	text := RenderTable1(rows)
	for _, tld := range tldsim.AllTLDs {
		if !strings.Contains(text, "."+tld) {
			t.Errorf("Table 1 missing .%s:\n%s", tld, text)
		}
	}
	// Directional check: ccTLDs far ahead of gTLDs.
	byTLD := map[string]TLDOverview{}
	for _, r := range rows {
		byTLD[r.TLD] = r
	}
	if byTLD["nl"].PctDNSKEY < 10*byTLD["com"].PctDNSKEY {
		t.Errorf(".nl (%.1f%%) should dwarf .com (%.2f%%)", byTLD["nl"].PctDNSKEY, byTLD["com"].PctDNSKEY)
	}
}

func TestStudyFigure3(t *testing.T) {
	s := testStudy(t)
	all, partial, full := Figure3(s.World.Index())
	if OperatorsToCover(full, 0.5) > OperatorsToCover(all, 0.5) {
		t.Error("full deployment should be more concentrated than the overall market")
	}
	if len(partial) == 0 || len(full) == 0 {
		t.Fatal("empty CDFs")
	}
}

func TestStudySeriesAndFigures(t *testing.T) {
	s := testStudy(t)
	ovh, gd := Figure4(s.World.Index(), 60)
	if len(ovh) == 0 || len(gd) == 0 {
		t.Fatal("empty Figure 4 series")
	}
	if ovh[len(ovh)-1].PctFull() < gd[len(gd)-1].PctFull() {
		t.Error("OVH should far exceed GoDaddy")
	}
	cf := Figure8(s.World.Index(), 60)
	if cf[0].WithDNSKEY != 0 {
		t.Error("Cloudflare series should start at zero before launch")
	}
}

func TestStudyProbeCampaigns(t *testing.T) {
	// Fresh study: probing mutates agents.
	s, err := NewStudy(Options{SkipWorld: true})
	if err != nil {
		t.Fatal(err)
	}
	obs := s.ProbeTable2()
	if len(obs) != 20 {
		t.Fatalf("Table 2 observations: %d", len(obs))
	}
	sum := Summarize(obs)
	if sum.HostedSupport != 3 || sum.OwnerSupport != 11 {
		t.Errorf("headline numbers: hosted=%d owner=%d", sum.HostedSupport, sum.OwnerSupport)
	}
	table := s.RenderTable2(obs)
	if !strings.Contains(table, "GoDaddy") || !strings.Contains(table, "OVH") {
		t.Error("Table 2 rendering incomplete")
	}
	rows := s.SurveyTable4()
	if len(rows) != 11 {
		t.Errorf("Table 4 rows: %d", len(rows))
	}
	if RenderTable4(rows) == "" {
		t.Error("empty Table 4")
	}
}

// measure runs Measure and returns the bytes of the archive it wrote.
func measure(ctx context.Context, s *Study, cfg LongitudinalConfig) ([]byte, error) {
	if _, err := s.Measure(ctx, cfg); err != nil {
		return nil, err
	}
	return os.ReadFile(cfg.Archive)
}

func TestStudyMeasureAgreesWithModel(t *testing.T) {
	s := testStudy(t)
	var health *SweepHealth
	idx, err := s.Measure(context.Background(), LongitudinalConfig{
		Days: []Day{simtime.End}, Sample: 120, Workers: 8, Archive: filepath.Join(t.TempDir(), "scans.tsv"),
		OnDayHealth: func(_ Day, h *SweepHealth) { health = h },
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(health.ByClass) != 0 || health.Measured != 120 {
		t.Fatalf("unhealthy sweep over a clean network: %s", health)
	}
	snap := idx.Snapshot(simtime.End)
	if len(snap.Records) != 120 {
		t.Fatalf("measured %d records", len(snap.Records))
	}
	modelClass := map[string]dnssec.Deployment{}
	for _, r := range s.World.Index().Snapshot(simtime.End).Records {
		modelClass[r.Domain] = r.Deployment()
	}
	for _, r := range snap.Records {
		if want, ok := modelClass[r.Domain]; !ok || r.Deployment() != want {
			t.Errorf("%s: measured %v, model %v", r.Domain, r.Deployment(), want)
		}
	}
}

// measureReference writes the uninterrupted one-process archive the
// resumed and fleet runs are held to, and returns its bytes and config.
func measureReference(t *testing.T, s *Study) ([]byte, LongitudinalConfig) {
	t.Helper()
	days := []Day{simtime.Date(2016, 6, 1), simtime.End}
	cfg := LongitudinalConfig{Days: days, Sample: 40, Workers: 4, Shards: 2, Archive: filepath.Join(t.TempDir(), "a.tsv")}
	want, err := measure(context.Background(), s, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if report, err := dataset.ScanArchive(bytes.NewReader(want), func(*dataset.Snapshot) error { return nil }); err != nil || report.Sections != 2 {
		t.Fatalf("archive of %d sections (%v), want 2", report.Sections, err)
	}
	return want, cfg
}

// TestStudyScanLongitudinal runs the resumable multi-day sweep through the
// public facade: a cancelled run leaves no archive, and its resume writes
// the file of an uninterrupted one-process run.
func TestStudyScanLongitudinal(t *testing.T) {
	s := testStudy(t)
	want, cfg := measureReference(t, s)

	// A checkpointed run cancelled before it starts, then resumed.
	cfg.CheckpointDir, cfg.Archive = t.TempDir(), filepath.Join(t.TempDir(), "b.tsv")
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Measure(ctx, cfg); err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	if _, err := os.Stat(cfg.Archive); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("the cancelled sweep left its archive: %v", err)
	}
	if got, err := measure(context.Background(), s, cfg); err != nil || !bytes.Equal(got, want) {
		t.Errorf("resumed archive differs from uninterrupted run (err %v)", err)
	}
}

// TestStudyScanDistributed: the coordinator/worker topology (Fleet: 3)
// writes the file of the one-process sweep (Fleet: 0).
func TestStudyScanDistributed(t *testing.T) {
	s := testStudy(t)
	want, cfg := measureReference(t, s)
	cfg.Fleet, cfg.CheckpointDir, cfg.Archive = 3, t.TempDir(), filepath.Join(t.TempDir(), "fleet.tsv")
	if got, err := measure(context.Background(), s, cfg); err != nil || !bytes.Equal(got, want) {
		t.Errorf("the fleet's archive differs from the one-process sweep's (err %v)", err)
	}
}

// TestMeasureRefusesDaysOutOfOrder: days that do not ascend, each once, are
// refused on both topologies with dsweep's error, before the sweep creates
// the checkpoint directory or the archive, or touches the network.
func TestMeasureRefusesDaysOutOfOrder(t *testing.T) {
	s := testStudy(t)
	for _, days := range [][]Day{{simtime.End, simtime.Date(2016, 6, 1)}, {simtime.End, simtime.End}} {
		for _, fleet := range []int{0, 2} {
			dir := t.TempDir()
			_, err := s.Measure(context.Background(), LongitudinalConfig{Days: days, Fleet: fleet,
				CheckpointDir: filepath.Join(dir, "checkpoint"), Archive: filepath.Join(dir, "a.tsv")})
			if left, _ := os.ReadDir(dir); err == nil || err.Error() != dsweep.CheckDays(days).Error() || len(left) != 0 {
				t.Errorf("days %v, fleet %d: err = %v, left %v; want dsweep's refusal and nothing written", days, fleet, err, left)
			}
		}
	}
}

// TestLongitudinalResumeRefusesOtherConfiguration: a checkpoint is bound to
// the world, the fault seed and the fault rules' contents, not only to the
// sample and the day list — a resume that differs in any of them would mix
// chunks measured under two configurations, and is refused like any other
// fingerprint mismatch.
func TestLongitudinalResumeRefusesOtherConfiguration(t *testing.T) {
	s := testStudy(t)
	otherWorld, err := NewStudy(Options{Scale: 1.0 / 2000, Seed: 4, SkipAgents: true})
	if err != nil {
		t.Fatal(err)
	}
	base := LongitudinalConfig{
		Days: []Day{simtime.End}, Sample: 20, Workers: 2, Shards: 2,
		FaultSeed: 1, Rules: []FaultRule{{Pattern: "*.com-hosting.example", Loss: 0.1}},
		CheckpointDir: t.TempDir(), Archive: filepath.Join(t.TempDir(), "a.tsv"),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.Measure(ctx, base); err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	for _, tc := range []struct {
		name   string
		study  *Study
		change func(*LongitudinalConfig)
	}{
		{"fault seed", s, func(c *LongitudinalConfig) { c.FaultSeed = 2 }},
		{"rule contents", s, func(c *LongitudinalConfig) {
			c.Rules = []FaultRule{{Pattern: "*.com-hosting.example", Loss: 0.2}}
		}},
		{"world", otherWorld, func(*LongitudinalConfig) {}},
	} {
		cfg := base
		tc.change(&cfg)
		if _, err := tc.study.Measure(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "different sweep") {
			t.Errorf("resume with another %s: err = %v, want a fingerprint refusal", tc.name, err)
		}
	}
	if _, err := s.Measure(context.Background(), base); err != nil {
		t.Errorf("resume under the original configuration: %v", err)
	}
}

// TestFacadeAndCLIRunOneDefinition: Study.Measure and the sweep regsec-scan
// -o builds from a spec's plan are one definition — equal fingerprints,
// byte-identical archive files, and a checkpoint either wrote is a resume
// point for the other.
func TestFacadeAndCLIRunOneDefinition(t *testing.T) {
	s := testStudy(t)
	days := []Day{simtime.Date(2016, 6, 1), simtime.End}
	rules := []FaultRule{{Pattern: "*.com-hosting.example", Loss: 0.3}}
	cfg := LongitudinalConfig{Days: days, Sample: 40, Workers: 4, Shards: 2, FaultSeed: 5, Rules: rules}
	spec := &dsweep.WorldSpec{ScaleDiv: 2000, Seed: 3, Sample: 40, Workers: 2, FaultSeed: 5, Rules: rules}
	plan := spec.PlanFor(days, 2, 0)

	facadePlan, _, err := s.plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if facadePlan.Fingerprint != plan.Fingerprint {
		t.Fatalf("fingerprints differ:\nfacade %s\nspec   %s", facadePlan.Fingerprint, plan.Fingerprint)
	}

	// stopper's context is cancelled once onDay has seen n > 0 days.
	stopper := func(n int) (ctx context.Context, onDay func(Day, *SweepHealth)) {
		ctx, cancel := context.WithCancel(context.Background())
		t.Cleanup(cancel)
		return ctx, func(Day, *SweepHealth) {
			if n--; n == 0 {
				cancel()
			}
		}
	}
	// cli runs the plan as regsec-scan -o does, until stopAfter days are done.
	cli := func(dir string, stopAfter int) ([]byte, error) {
		var cp *checkpoint.Store
		if dir != "" {
			if cp, err = checkpoint.Open(dir); err != nil {
				t.Fatal(err)
			}
		}
		ctx, onDay := stopper(stopAfter)
		path := filepath.Join(t.TempDir(), "scans.tsv")
		aw, err := dataset.NewArchiveWriter(path)
		if err != nil {
			t.Fatal(err)
		}
		sink := func(_ Day, sw *dataset.SpillWriter) error { return aw.Section(sw) }
		if err := plan.Sweep(s.World, cp, dataset.SpillOptions{}, onDay).RunStream(ctx, plan.Days, sink); err != nil {
			return nil, err
		}
		if err := aw.Close(); err != nil {
			return nil, err
		}
		return os.ReadFile(path)
	}
	// facade runs the same sweep through Measure.
	facade := func(dir string, stopAfter int) ([]byte, error) {
		ctx, onDay := stopper(stopAfter)
		c := cfg
		c.CheckpointDir, c.Archive, c.OnDayHealth = dir, filepath.Join(t.TempDir(), "scans.tsv"), onDay
		return measure(ctx, s, c)
	}

	want, err := cli("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := facade("", 0); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("facade archive differs from the spec's sweep (err %v)", err)
	}
	for _, tc := range []struct {
		name          string
		first, second func(string, int) ([]byte, error)
	}{
		{"facade then cli", facade, cli},
		{"cli then facade", cli, facade},
	} {
		dir := t.TempDir()
		if _, err := tc.first(dir, 1); !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: interrupted run: %v", tc.name, err)
		}
		logged := logtest.Capture(t)
		got, err := tc.second(dir, 0)
		if err != nil {
			t.Fatalf("%s: resume: %v", tc.name, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("%s: resumed archive differs", tc.name)
		}
		verified := logged.Records("resume: day verified from checkpoint, skipping scan")
		if len(verified) != 1 || verified[0].Attrs["day"] != days[0].String() {
			t.Errorf("%s: the resume re-scanned the finished day %s: %v", tc.name, days[0], logged.Records(""))
		}
	}
}

func TestStudyOptions(t *testing.T) {
	s, err := NewStudy(Options{SkipWorld: true, SkipAgents: true})
	if err != nil {
		t.Fatal(err)
	}
	if s.World != nil || s.Agents != nil {
		t.Error("skip options ignored")
	}
	if s.Eco == nil || len(s.Eco.Registries) != 5 {
		t.Error("ecosystem incomplete")
	}
}
