package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/cmdtest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// TestMain makes the test binary regsec-sweepd when the tests re-execute it.
func TestMain(m *testing.M) { cmdtest.Main(m, run) }

var servingOn = regexp.MustCompile(`on (http://127\.0\.0\.1:\d+) `)

// TestDaemonKilledMidPlanResumes is the coordinator half of the distributed
// drill with the real binary: the daemon is SIGKILLed once its ledger holds
// a finished unit, refuses the directory without -resume, adopts it with,
// and the archive it merges from in-process workers' chunk files is the
// single-process sweep's of the same plan, byte for byte.
func TestDaemonKilledMidPlanResumes(t *testing.T) {
	dir := t.TempDir()
	state, merged := filepath.Join(dir, "state"), filepath.Join(dir, "merged.tsv")
	args := []string{"-checkpoint-dir", state, "-o", merged, "-scale", "4000", "-sample", "120",
		"-days", "2016-06-01,2016-12-31", "-shards", "4", "-chunk", "8", "-lease-ttl", "2s"}
	d := cmdtest.StartDaemon(t, servingOn, args...)

	ctx := context.Background()
	plan, err := (&dsweep.Client{Base: d.URL}).FetchPlan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	world, err := tldsim.Build(plan.Spec.WorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(state)
	if err != nil {
		t.Fatal(err)
	}
	// drain runs one in-process worker against the daemon at url.
	drain := func(url string) error {
		w, err := dsweep.NewWorker(dsweep.WorkerConfig{Name: "w1", Coord: &dsweep.Client{Base: url}, Store: store,
			StreamSetup: plan.Spec.BuildStreamWith(world, nil, 0)})
		if err != nil {
			t.Fatal(err)
		}
		return w.Run(ctx)
	}

	// A lease nobody works holds the plan open for its TTL, so the daemon
	// is certain to die mid-plan, its ledger listing finished units.
	if g, err := (&dsweep.Client{Base: d.URL}).Lease(ctx, "ghost"); err != nil || g.Status != dsweep.GrantRun {
		t.Fatalf("ghost lease: %+v, %v", g, err)
	}
	lost := make(chan error, 1)
	go func() { lost <- drain(d.URL) }()
	ledger := filepath.Join(state, "coordinator.json")
	d.Await("a finished unit", func() bool {
		data, _ := os.ReadFile(ledger)
		return bytes.Contains(data, []byte(`"manifest"`))
	})
	d.Kill()
	if err := <-lost; err == nil {
		t.Fatal("the worker finished a plan whose coordinator was killed mid-plan")
	}

	// A finished unit is a manifest of chunk files: no shard archive.
	names, err := filepath.Glob(filepath.Join(state, "*.tsv"))
	if err != nil || len(names) == 0 {
		t.Fatalf("no chunk files in %s (%v)", state, err)
	}
	for _, name := range names {
		if !strings.Contains(filepath.Base(name), "-chunk-") {
			t.Errorf("%s is not a chunk file", name)
		}
	}

	if code, stderr := cmdtest.Exit(t, append(args, "-listen", "127.0.0.1:0")...); code != 2 || !strings.Contains(stderr, "-resume") {
		t.Fatalf("restart without -resume: exit %d, stderr %q; want exit 2 with the -resume hint", code, stderr)
	}
	d = cmdtest.StartDaemon(t, servingOn, append(args, "-resume")...)
	if !strings.Contains(d.Stderr.String(), "restored state") {
		t.Errorf("the resumed daemon adopted nothing:\n%s", d.Stderr)
	}
	if err := drain(d.URL); err != nil {
		t.Fatalf("draining the resumed plan: %v\n%s", err, d.Stderr)
	}
	if err := d.Cmd.Wait(); err != nil {
		t.Fatalf("resumed daemon: %v\n%s", err, d.Stderr)
	}

	rs := plan.Sweep(world, nil, dataset.SpillOptions{}, nil)
	wantPath := filepath.Join(t.TempDir(), "want.tsv")
	aw, err := dataset.NewArchiveWriter(wantPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := rs.RunStream(ctx, plan.Days, func(_ simtime.Day, sw *dataset.SpillWriter) error {
		return aw.Section(sw)
	}); err != nil {
		aw.Abort()
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	got := archivetest.Read(t, merged)
	if !bytes.Equal(got, archivetest.Read(t, wantPath)) {
		t.Error("the daemon's merged archive differs from the single-process sweep of its plan")
	}
}

// TestFlagDocs: README's Tools row and the Usage comment name the flags -h
// prints, each once, and no other.
func TestFlagDocs(t *testing.T) { cmdtest.CheckFlagDocs(t, "regsec-sweepd") }

// A stopped coordinator's directory is adopted only with -resume: without
// it the daemon refuses with the hint (exit 2) instead of silently
// continuing someone's sweep.
func TestRestartWithoutResumeIsRefused(t *testing.T) {
	dir := t.TempDir()
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The plan the command builds from its default flags, with one lease
	// granted so the coordinator has persisted its ledger.
	spec := &dsweep.WorldSpec{ScaleDiv: 2000, Seed: 1, Sample: 1000, Workers: 16, Retries: 3, Resweeps: 2, FaultLoss: 0.2, FaultSeed: 1}
	coord, err := dsweep.NewCoordinator(dsweep.CoordinatorConfig{
		Plan: spec.PlanFor([]simtime.Day{simtime.End}, 4, scan.DefaultChunk), Store: store,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := coord.Lease(context.Background(), "w1"); err != nil {
		t.Fatal(err)
	}
	coord.Close()

	code, stderr := cmdtest.Exit(t, "-checkpoint-dir", dir, "-o", filepath.Join(dir, "merged.tsv"), "-listen", "127.0.0.1:0")
	if code != 2 || !strings.Contains(stderr, "-resume") || !strings.Contains(stderr, "coordinator.json") {
		t.Fatalf("exit %d, stderr %q; want exit 2 with the -resume hint", code, stderr)
	}
}

// A single-process regsec-scan checkpoint directory is never a
// coordinator's to adopt, -resume or not.
func TestSingleProcessDirectoryIsRefused(t *testing.T) {
	for _, resume := range []bool{false, true} {
		dir := t.TempDir()
		archivetest.Write(t, filepath.Join(dir, "checkpoint.json"), []byte("{}\n"))
		args := []string{"-checkpoint-dir", dir, "-o", filepath.Join(dir, "merged.tsv"), "-listen", "127.0.0.1:0"}
		if resume {
			args = append(args, "-resume")
		}
		code, stderr := cmdtest.Exit(t, args...)
		if code != 2 || !strings.Contains(stderr, "checkpoint.json") || !strings.Contains(stderr, "regsec-scan") {
			t.Errorf("resume=%v: exit %d, stderr %q; want exit 2 naming the regsec-scan checkpoint", resume, code, stderr)
		}
	}
}
