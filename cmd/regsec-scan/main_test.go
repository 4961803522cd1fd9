package main

import (
	"bytes"
	"context"
	"errors"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/cmdtest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// TestMain makes the test binary regsec-scan when the tests re-execute it.
func TestMain(m *testing.M) { cmdtest.Main(m, run) }

// A stopped coordinator's directory is not a single-process checkpoint:
// regsec-scan refuses it by name, with or without -resume, before any work
// — its closing Clear would delete the fleet's durable chunks.
func TestCoordinatorDirectoryIsRefused(t *testing.T) {
	for _, resume := range []bool{false, true} {
		dir := t.TempDir()
		chunk := filepath.Join(dir, "day-2016-12-31-shard-000-chunk-00000.w-w1-0badcafe.tsv")
		for _, name := range []string{filepath.Join(dir, "coordinator.json"), chunk} {
			archivetest.Write(t, name, []byte("{}\n"))
		}
		args := []string{"-checkpoint-dir", dir, "-o", filepath.Join(dir, "out.tsv"), "-scale", "4000", "-sample", "10"}
		if resume {
			args = append(args, "-resume")
		}
		if code, stderr := cmdtest.Exit(t, args...); code != 2 || !strings.Contains(stderr, "coordinator.json") || !strings.Contains(stderr, "regsec-sweepd") {
			t.Errorf("resume=%v: exit %d, stderr %q; want exit 2 naming the regsec-sweepd coordinator's state", resume, code, stderr)
		}
		if _, err := os.Stat(chunk); err != nil {
			t.Errorf("resume=%v: the coordinator's chunk file did not survive: %v", resume, err)
		}
	}
}

// TestFlagDocs: README's Tools row and the Usage comment name the flags -h
// prints, each once, and no other.
func TestFlagDocs(t *testing.T) { cmdtest.CheckFlagDocs(t, "regsec-scan") }

// TestWorkerKilledMidUnitFleetDrains is the worker half of the distributed
// drill with the real binary: regsec-scan -worker processes take the plan —
// the spec, as JSON — from a coordinator over HTTP; one, measuring from a
// slow vantage point, is SIGKILLed while it holds a lease, a second drains
// the plan once that lease expires, and the merged archive is the
// single-process regsec-scan's, byte for byte.
func TestWorkerKilledMidUnitFleetDrains(t *testing.T) {
	t.Parallel() // the survivor idles for the killed lease's 2 s TTL; overlap it
	dir := t.TempDir()
	ref := filepath.Join(dir, "ref.tsv")
	if out, err := cmdtest.Command("-scale", "4000", "-sample", "120", "-days", "2016-06-01,2016-12-31",
		"-shards", "4", "-o", ref).CombinedOutput(); err != nil {
		t.Fatalf("single-process reference: %v\n%s", err, out)
	}

	state := filepath.Join(dir, "state")
	store, err := checkpoint.Open(state)
	if err != nil {
		t.Fatal(err)
	}
	spec := &dsweep.WorldSpec{ScaleDiv: 4000, Sample: 120}
	plan := spec.PlanFor([]simtime.Day{simtime.Date(2016, 6, 1), simtime.End}, 4, 8)
	coord, err := dsweep.NewCoordinator(dsweep.CoordinatorConfig{Plan: plan, Store: store, LeaseTTL: 2 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	srv := httptest.NewServer(dsweep.NewHandler(coord))
	defer srv.Close()

	// Every exchange of the doomed worker takes 100 ms, so a unit takes
	// most of a second, and the coordinator persists its ledger on every
	// grant: the worker dies owning a unit.
	vantage := filepath.Join(dir, "slow-vantage.txt")
	archivetest.Write(t, vantage, []byte("* latency=100ms\n"))
	doomed := cmdtest.Start(t, "-worker", srv.URL, "-checkpoint-dir", state, "-name", "doomed", "-fault-profile", vantage)
	doomed.Await("the doomed worker holding a lease", func() bool {
		ledger, _ := os.ReadFile(filepath.Join(state, "coordinator.json"))
		return bytes.Contains(ledger, []byte("doomed"))
	})
	doomed.Kill()

	if out, err := cmdtest.Command("-worker", srv.URL, "-checkpoint-dir", state, "-name", "survivor").CombinedOutput(); err != nil {
		t.Fatalf("surviving worker: %v\n%s", err, out)
	}
	select {
	case <-coord.Done():
	default:
		t.Fatal("the surviving worker exited with the plan unfinished")
	}
	if coord.Stats().Releases == 0 {
		t.Errorf("the killed worker's lease never expired: %+v", coord.Stats())
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
	mergedPath := filepath.Join(dir, "merged.tsv")
	aw, err := dataset.NewArchiveWriter(mergedPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := coord.Merge(dataset.SpillOptions{}, func(_ simtime.Day, sw *dataset.SpillWriter) error {
		return aw.Section(sw)
	}); err != nil {
		aw.Abort()
		t.Fatal(err)
	}
	if err := aw.Close(); err != nil {
		t.Fatal(err)
	}
	want := archivetest.Read(t, ref)
	if !bytes.Equal(archivetest.Read(t, mergedPath), want) {
		t.Error("the fleet's merged archive differs from the single-process regsec-scan archive")
	}
}

// TestSweepKilledMidDayResumes is the single-process drill with the real
// binary: regsec-scan -checkpoint-dir is SIGKILLed once a chunk file is
// durable — nothing is flushed on the way out — and regsec-scan -resume
// over that directory finishes an archive byte-identical to an
// uninterrupted run's, reusing the durable chunks, then clears the
// directory down to nothing. Lossy operators make retries back off, so the
// sweep is still running when the kill lands.
func TestSweepKilledMidDayResumes(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	plan := []string{"-scale", "4000", "-sample", "240", "-shards", "4", "-chunk", "4", "-days", simtime.End.String(),
		"-fault-frac", "1", "-fault-loss", "0.3"}
	ref := filepath.Join(dir, "ref.tsv")
	if out, err := cmdtest.Command(append(plan, "-o", ref)...).CombinedOutput(); err != nil {
		t.Fatalf("uninterrupted reference: %v\n%s", err, out)
	}

	state := filepath.Join(dir, "state")
	doomed := cmdtest.Start(t, append(plan, "-checkpoint-dir", state, "-o", filepath.Join(dir, "killed.tsv"))...)
	chunks := func() []string {
		names, _ := filepath.Glob(filepath.Join(state, "day-*-chunk-*.tsv"))
		return names
	}
	doomed.Await("a chunk file", func() bool { return len(chunks()) > 0 })
	var exit *exec.ExitError
	if err := doomed.Kill(); !errors.As(err, &exit) || exit.ExitCode() != -1 {
		t.Fatalf("the sweep was not killed mid-day: %v", err)
	}
	if n := len(chunks()); n == 0 || n >= 60 {
		t.Fatalf("the kill left %d of 60 chunk files", n)
	}

	out := filepath.Join(dir, "resumed.tsv")
	resume := cmdtest.Command(append(plan, "-checkpoint-dir", state, "-resume", "-o", out)...)
	var stderr bytes.Buffer
	resume.Stderr = &stderr
	if err := resume.Run(); err != nil {
		t.Fatalf("regsec-scan -resume: %v\n%s", err, stderr.String())
	}
	if !strings.Contains(stderr.String(), " WARN resume: chunk verified from checkpoint ") {
		t.Errorf("the resume reused no chunk:\n%s", stderr.String())
	}
	got := archivetest.Read(t, out)
	want := archivetest.Read(t, ref)
	if !bytes.Equal(got, want) {
		t.Error("the resumed archive differs from the uninterrupted run's")
	}
	left, err := os.ReadDir(state)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range left {
		t.Errorf("left in the checkpoint directory after the sweep: %s", e.Name())
	}
}

// TestResumeLogsChunkReuse: regsec-scan -resume over a checkpoint holding
// the first chunk of an interrupted shard reuses that chunk and says so on
// stderr as a record locating it by day, shard and chunk.
func TestResumeLogsChunkReuse(t *testing.T) {
	dir := t.TempDir()
	spec := &dsweep.WorldSpec{ScaleDiv: 4000, Sample: 40, FaultLoss: 0.2} // -fault-loss's default
	plan := spec.PlanFor([]simtime.Day{simtime.End}, 1, 20)
	world, err := tldsim.Build(spec.WorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	store, err := checkpoint.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	// The sweep is interrupted as it prepares its second chunk, with the
	// first one durable.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	rs := plan.Sweep(world, store, dataset.SpillOptions{}, nil)
	setup := rs.StreamSetup
	rs.StreamSetup = func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		s, src, prepare, err := setup(ctx, day)
		prepared := 0
		return s, src, func(ctx context.Context, lo, hi int) error {
			if prepared++; prepared == 2 {
				cancel()
				return ctx.Err()
			}
			return prepare(ctx, lo, hi)
		}, err
	}
	if err := rs.RunStream(ctx, plan.Days, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("interrupted sweep: %v", err)
	}

	cmd := cmdtest.Command("-scale", "4000", "-sample", "40", "-shards", "1", "-chunk", "20", "-days", simtime.End.String(),
		"-checkpoint-dir", dir, "-resume", "-o", filepath.Join(t.TempDir(), "out.tsv"))
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("regsec-scan -resume: %v\n%s", err, stderr.String())
	}
	reuse := regexp.MustCompile(`(?m) WARN resume: chunk verified from checkpoint day=` + simtime.End.String() + ` shard=0 chunk=0 `)
	if !reuse.MatchString(stderr.String()) {
		t.Errorf("no record of the reused chunk with its day, shard and chunk:\n%s", stderr.String())
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
