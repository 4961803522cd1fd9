package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/cmdtest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// TestMain lets the tests run the command itself: re-executed with
// REGSEC_RUN_MAIN set, the test binary is regsec-sweepd.
func TestMain(m *testing.M) {
	if os.Getenv("REGSEC_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// sweepd runs regsec-sweepd with args and returns its exit code and stderr.
// A daemon that starts serving instead of refusing is killed after 10 s and
// reported as exit code -1.
func sweepd(t *testing.T, args ...string) (int, string) {
	t.Helper()
	cmd := cmdtest.Command(args...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	timer := time.AfterFunc(10*time.Second, func() { cmd.Process.Kill() })
	err := cmd.Wait()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case timer.Stop() && errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	return -1, stderr.String()
}

// daemon is a running regsec-sweepd.
type daemon struct {
	cmd    *exec.Cmd
	stderr *cmdtest.Buffer
	url    string
}

var servingOn = regexp.MustCompile(`on (http://127\.0\.0\.1:\d+) `)

// startDaemon starts regsec-sweepd on a free port and waits until it
// announces its control-plane address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{cmd: cmdtest.Command(append(args, "-listen", "127.0.0.1:0")...), stderr: &cmdtest.Buffer{}}
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	for deadline := time.Now().Add(20 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		if m := servingOn.FindStringSubmatch(d.stderr.String()); m != nil {
			d.url = m[1]
			return d
		}
	}
	t.Fatalf("regsec-sweepd never announced its address:\n%s", d.stderr)
	return nil
}

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
	d := startDaemon(t, args...)

	ctx := context.Background()
	plan, err := (&dsweep.Client{Base: d.url}).FetchPlan(ctx)
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
	if g, err := (&dsweep.Client{Base: d.url}).Lease(ctx, "ghost"); err != nil || g.Status != dsweep.GrantRun {
		t.Fatalf("ghost lease: %+v, %v", g, err)
	}
	lost := make(chan error, 1)
	go func() { lost <- drain(d.url) }()
	ledger := filepath.Join(state, "coordinator.json")
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(10 * time.Millisecond) {
		if data, _ := os.ReadFile(ledger); bytes.Contains(data, []byte(`"manifest"`)) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("no unit finished:\n%s", d.stderr)
		}
	}
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait()
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

	if code, stderr := sweepd(t, append(args, "-listen", "127.0.0.1:0")...); code != 2 || !strings.Contains(stderr, "-resume") {
		t.Fatalf("restart without -resume: exit %d, stderr %q; want exit 2 with the -resume hint", code, stderr)
	}
	d = startDaemon(t, append(args, "-resume")...)
	if !strings.Contains(d.stderr.String(), "restored state") {
		t.Errorf("the resumed daemon adopted nothing:\n%s", d.stderr)
	}
	if err := drain(d.url); err != nil {
		t.Fatalf("draining the resumed plan: %v\n%s", err, d.stderr)
	}
	if err := d.cmd.Wait(); err != nil {
		t.Fatalf("resumed daemon: %v\n%s", err, d.stderr)
	}

	rs := plan.Sweep(world, nil, dataset.SpillOptions{}, nil)
	var want bytes.Buffer
	if err := rs.RunStream(ctx, plan.Days, func(_ simtime.Day, sw *dataset.SpillWriter) error {
		return sw.WriteSectionTo(&want)
	}); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want.Bytes()) {
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

	code, stderr := sweepd(t, "-checkpoint-dir", dir, "-o", filepath.Join(dir, "merged.tsv"), "-listen", "127.0.0.1:0")
	if code != 2 || !strings.Contains(stderr, "-resume") || !strings.Contains(stderr, "coordinator.json") {
		t.Fatalf("exit %d, stderr %q; want exit 2 with the -resume hint", code, stderr)
	}
}

// A single-process regsec-scan checkpoint directory is never a
// coordinator's to adopt, -resume or not.
func TestSingleProcessDirectoryIsRefused(t *testing.T) {
	for _, resume := range []bool{false, true} {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte("{}\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		args := []string{"-checkpoint-dir", dir, "-o", filepath.Join(dir, "merged.tsv"), "-listen", "127.0.0.1:0"}
		if resume {
			args = append(args, "-resume")
		}
		code, stderr := sweepd(t, args...)
		if code != 2 || !strings.Contains(stderr, "checkpoint.json") || !strings.Contains(stderr, "regsec-scan") {
			t.Errorf("resume=%v: exit %d, stderr %q; want exit 2 naming the regsec-scan checkpoint", resume, code, stderr)
		}
	}
}
