package registrarsec

import (
	"context"
	"errors"
	"strings"
	"sync"
	"testing"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/logtest"
	"securepki.org/registrarsec/internal/simtime"
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
	rows := s.Table1()
	if len(rows) != 5 {
		t.Fatalf("Table 1 rows: %d", len(rows))
	}
	text := RenderTable1(rows)
	for _, tld := range AllTLDs {
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
	all, partial, full := s.Figure3()
	if OperatorsToCover(full, 0.5) > OperatorsToCover(all, 0.5) {
		t.Error("full deployment should be more concentrated than the overall market")
	}
	if len(partial) == 0 || len(full) == 0 {
		t.Fatal("empty CDFs")
	}
}

func TestStudySeriesAndFigures(t *testing.T) {
	s := testStudy(t)
	ovh, gd := s.Figure4(60)
	if len(ovh) == 0 || len(gd) == 0 {
		t.Fatal("empty Figure 4 series")
	}
	if ovh[len(ovh)-1].PctFull() < gd[len(gd)-1].PctFull() {
		t.Error("OVH should far exceed GoDaddy")
	}
	cf := s.Figure8(60)
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

func TestStudyScanSampleAgreesWithModel(t *testing.T) {
	s := testStudy(t)
	snap, health, err := s.ScanSample(context.Background(), simtime.End, 120, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != 120 {
		t.Fatalf("scanned %d records", len(snap.Records))
	}
	if len(health.ByClass) != 0 || health.Measured != 120 {
		t.Fatalf("unhealthy sweep over a clean network: %s", health)
	}
	model := s.World.Index().Snapshot(simtime.End)
	modelClass := map[string]Deployment{}
	for i := range model.Records {
		modelClass[model.Records[i].Domain] = model.Records[i].Deployment()
	}
	for i := range snap.Records {
		r := &snap.Records[i]
		if want, ok := modelClass[r.Domain]; !ok || r.Deployment() != want {
			t.Errorf("%s: scan %v, model %v", r.Domain, r.Deployment(), want)
		}
	}
}

// TestStudyScanLongitudinal runs the resumable multi-day sweep through the
// public facade: interrupted and uninterrupted runs must converge on
// byte-identical archives.
// archiveText renders a swept store as the sweep's archive writer does: one
// trailered section per day, oldest first.
func archiveText(t *testing.T, store *dataset.Store) string {
	t.Helper()
	var b strings.Builder
	for _, day := range store.Days() {
		if err := store.Get(day).WriteArchiveSection(&b); err != nil {
			t.Fatal(err)
		}
	}
	return b.String()
}

func TestStudyScanLongitudinal(t *testing.T) {
	s := testStudy(t)
	days := []Day{simtime.Date(2016, 6, 1), simtime.End}
	base := LongitudinalConfig{Days: days, Sample: 40, Workers: 4, Shards: 2}

	store, err := s.ScanLongitudinal(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	if store.Len() != 2 {
		t.Fatalf("snapshots: %d", store.Len())
	}
	want := archiveText(t, store)

	// Checkpointed run interrupted before day two, then resumed.
	cfg := base
	cfg.CheckpointDir = t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ScanLongitudinal(ctx, cfg); err == nil {
		t.Fatal("cancelled sweep reported success")
	}
	resumed, err := s.ScanLongitudinal(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := archiveText(t, resumed)
	if want != got {
		t.Error("resumed archive differs from uninterrupted run")
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
		CheckpointDir: t.TempDir(),
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.ScanLongitudinal(ctx, base); err == nil {
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
		if _, err := tc.study.ScanLongitudinal(context.Background(), cfg); err == nil || !strings.Contains(err.Error(), "different sweep") {
			t.Errorf("resume with another %s: err = %v, want a fingerprint refusal", tc.name, err)
		}
	}
	if _, err := s.ScanLongitudinal(context.Background(), base); err != nil {
		t.Errorf("resume under the original configuration: %v", err)
	}
}

// TestFacadeAndCLIRunOneDefinition: Study.ScanLongitudinal and the sweep
// regsec-scan builds from a spec's plan are one definition — equal
// fingerprints, byte-identical archives, and a checkpoint either wrote is a
// resume point for the other.
func TestFacadeAndCLIRunOneDefinition(t *testing.T) {
	s := testStudy(t)
	days := []Day{simtime.Date(2016, 6, 1), simtime.End}
	rules := []FaultRule{{Pattern: "*.com-hosting.example", Loss: 0.3}}
	cfg := LongitudinalConfig{Days: days, Sample: 40, Workers: 4, Shards: 2, FaultSeed: 5, Rules: rules}
	spec := &dsweep.WorldSpec{ScaleDiv: 2000, Seed: 3, Sample: 40, SampleSeed: 1, Workers: 2, FaultSeed: 5, Rules: rules}
	plan := spec.PlanFor(days, 2, 0)

	facadePlan, _, err := s.plan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if facadePlan.Fingerprint != plan.Fingerprint {
		t.Fatalf("fingerprints differ:\nfacade %s\nspec   %s", facadePlan.Fingerprint, plan.Fingerprint)
	}

	// cli runs the plan as regsec-scan does, until stopAfter days are done.
	cli := func(dir string, stopAfter int) (string, error) {
		var cp *checkpoint.Store
		if dir != "" {
			if cp, err = checkpoint.Open(dir); err != nil {
				t.Fatal(err)
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		done := 0
		rs := plan.Sweep(s.World, cp, dataset.SpillOptions{}, func(Day, *SweepHealth) {
			if done++; done == stopAfter {
				cancel()
			}
		})
		var out strings.Builder
		err = rs.RunStream(ctx, plan.Days, func(_ Day, sw *dataset.SpillWriter) error { return sw.WriteSectionTo(&out) })
		return out.String(), err
	}
	// facade runs the same sweep through ScanLongitudinal.
	facade := func(dir string, stopAfter int) (string, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		c := cfg
		c.CheckpointDir = dir
		done := 0
		c.OnDayHealth = func(Day, *SweepHealth) {
			if done++; done == stopAfter {
				cancel()
			}
		}
		archive, err := s.ScanLongitudinal(ctx, c)
		if err != nil {
			return "", err
		}
		return archiveText(t, archive), nil
	}

	want, err := cli("", 0)
	if err != nil {
		t.Fatal(err)
	}
	if got, err := facade("", 0); err != nil || got != want {
		t.Fatalf("facade archive differs from the spec's sweep (err %v)", err)
	}
	for _, tc := range []struct {
		name          string
		first, second func(string, int) (string, error)
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
		if got != want {
			t.Errorf("%s: resumed archive differs", tc.name)
		}
		verified := logged.Records("resume: day verified from checkpoint, skipping scan")
		if len(verified) != 1 || verified[0].Attrs["day"] != days[0].String() {
			t.Errorf("%s: the resume re-scanned the finished day %s: %v", tc.name, days[0], logged.Records(""))
		}
	}
}

// TestStudyScanDistributed runs the coordinator/worker topology through
// the public facade: the merged archive must be byte-identical to the
// single-process resumable sweep of the same configuration.
func TestStudyScanDistributed(t *testing.T) {
	s := testStudy(t)
	days := []Day{simtime.Date(2016, 6, 1), simtime.End}
	base := LongitudinalConfig{Days: days, Sample: 40, Workers: 4, Shards: 2}

	single, err := s.ScanLongitudinal(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}
	want := archiveText(t, single)

	cfg := DistributedConfig{Longitudinal: base, Fleet: 3}
	cfg.Longitudinal.CheckpointDir = t.TempDir()
	store, res, err := s.ScanDistributed(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	got := archiveText(t, store)
	if want != got {
		t.Error("distributed archive differs from single-process sweep")
	}
	if res.Stats.Done != len(days)*base.Shards {
		t.Fatalf("stats: %+v", res.Stats)
	}
	if len(res.HealthByWorker) == 0 {
		t.Fatal("no per-worker health attribution")
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
