package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
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
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cmd := exec.CommandContext(ctx, os.Args[0], args...)
	cmd.Env = append(os.Environ(), "REGSEC_RUN_MAIN=1")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	err := cmd.Run()
	var exit *exec.ExitError
	switch {
	case err == nil:
		return 0, stderr.String()
	case ctx.Err() == nil && errors.As(err, &exit):
		return exit.ExitCode(), stderr.String()
	}
	return -1, stderr.String()
}

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
