package main

import (
	"bytes"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/scan"
)

// TestMain lets the tests run the command itself: re-executed with
// REGSEC_RUN_MAIN set, the test binary is regsec-scan.
func TestMain(m *testing.M) {
	if os.Getenv("REGSEC_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// A stopped coordinator's directory is not a single-process checkpoint:
// regsec-scan refuses it by name, with or without -resume, before any work
// — its closing Clear would delete the fleet's durable chunks.
func TestCoordinatorDirectoryIsRefused(t *testing.T) {
	for _, resume := range []bool{false, true} {
		dir := t.TempDir()
		chunk := filepath.Join(dir, "day-2016-12-31-shard-000-chunk-00000.w-w1-0badcafe.tsv")
		for _, name := range []string{filepath.Join(dir, "coordinator.json"), chunk} {
			if err := os.WriteFile(name, []byte("{}\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		args := []string{"-checkpoint-dir", dir, "-o", filepath.Join(dir, "out.tsv"), "-scale", "4000", "-sample", "10"}
		if resume {
			args = append(args, "-resume")
		}
		cmd := exec.Command(os.Args[0], args...)
		cmd.Env = append(os.Environ(), "REGSEC_RUN_MAIN=1")
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 ||
			!strings.Contains(stderr.String(), "coordinator.json") || !strings.Contains(stderr.String(), "regsec-sweepd") {
			t.Errorf("resume=%v: %v, stderr %q; want exit 2 naming the regsec-sweepd coordinator's state", resume, err, stderr.String())
		}
		if _, err := os.Stat(chunk); err != nil {
			t.Errorf("resume=%v: the coordinator's chunk file did not survive: %v", resume, err)
		}
	}
}

// setOf models "these flags were explicitly passed on the command line".
func setOf(names ...string) map[string]bool {
	m := make(map[string]bool, len(names))
	for _, n := range names {
		m[n] = true
	}
	return m
}

func TestValidateFlags(t *testing.T) {
	cases := []struct {
		name  string
		set   map[string]bool
		chunk int
		want  string // substring of the error, "" for accept
	}{
		{"bare scan", setOf(), scan.DefaultChunk, ""},
		{"plain sweep", setOf("days", "sample", "o", "fault-frac"), scan.DefaultChunk, ""},
		{"resume with dir", setOf("resume", "checkpoint-dir"), scan.DefaultChunk, ""},
		{"resume without dir", setOf("resume"), scan.DefaultChunk, "-resume requires -checkpoint-dir"},
		{"worker minimal", setOf("worker", "checkpoint-dir"), scan.DefaultChunk, ""},
		{"worker with vantage", setOf("worker", "checkpoint-dir", "name", "fault-profile", "vantage-seed"), scan.DefaultChunk, ""},
		{"worker with profiling", setOf("worker", "checkpoint-dir", "cpuprofile", "memprofile"), scan.DefaultChunk, ""},
		{"worker without dir", setOf("worker"), scan.DefaultChunk, "requires -checkpoint-dir"},
		{"worker with plan flags", setOf("worker", "checkpoint-dir", "days", "sample"), scan.DefaultChunk, "set them on regsec-sweepd"},
		{"worker with output", setOf("worker", "checkpoint-dir", "o"), scan.DefaultChunk, "-o"},
		{"worker with resume", setOf("worker", "checkpoint-dir", "resume"), scan.DefaultChunk, "-resume"},
		{"worker with world cache", setOf("worker", "checkpoint-dir", "world-cache"), scan.DefaultChunk, "-world-cache"},
		{"name without worker", setOf("name"), scan.DefaultChunk, "only applies to -worker"},
		{"fault-profile without worker", setOf("fault-profile", "checkpoint-dir"), scan.DefaultChunk, "only applies to -worker"},
		{"vantage-seed without worker", setOf("vantage-seed"), scan.DefaultChunk, "only applies to -worker"},
		{"streaming sweep", setOf("chunk", "mem-budget", "spill-dir", "o"), 32, ""},
		{"chunked resume", setOf("chunk", "resume", "checkpoint-dir"), 32, ""},
		{"mem-budget without chunk", setOf("mem-budget"), scan.DefaultChunk, ""},
		{"spill-dir without chunk", setOf("spill-dir", "o"), scan.DefaultChunk, ""},
		{"chunk zero selects the default", setOf("chunk"), 0, ""},
		{"negative chunk", setOf("chunk"), -1, "cannot be negative"},
		{"worker with chunk", setOf("worker", "checkpoint-dir", "chunk"), scan.DefaultChunk, "set them on regsec-sweepd"},
		{"worker with spill-dir", setOf("worker", "checkpoint-dir", "spill-dir"), scan.DefaultChunk, "does not apply to -worker mode"},
		{"worker with mem-budget", setOf("worker", "checkpoint-dir", "mem-budget"), scan.DefaultChunk, "does not apply to -worker mode"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := validateFlags(tc.set, tc.chunk)
			if tc.want == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err %v, want substring %q", err, tc.want)
			}
		})
	}
}

// Every flag name validateFlags special-cases must actually exist, or the
// message would tell the user about a flag that isn't there.
func TestValidateFlagNamesExist(t *testing.T) {
	known := setOf("scale", "seed", "days", "sample", "workers", "o",
		"retries", "resweeps", "fault-frac", "fault-loss", "fault-seed",
		"cache", "dedup", "checkpoint-dir", "resume", "shards",
		"cpuprofile", "memprofile", "worker", "name", "fault-profile",
		"vantage-seed", "world-cache", "chunk", "mem-budget", "spill-dir")
	for _, f := range planFlags {
		if !known[f] {
			t.Errorf("planFlags references unknown flag %q", f)
		}
	}
	for _, f := range workerOnlyFlags {
		if !known[f] {
			t.Errorf("workerOnlyFlags references unknown flag %q", f)
		}
	}
	for _, f := range spillFlags {
		if !known[f] {
			t.Errorf("spillFlags references unknown flag %q", f)
		}
	}
}
