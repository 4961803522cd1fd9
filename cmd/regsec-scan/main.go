// Command regsec-scan materializes a day of the simulated ecosystem as
// real, signed DNS and sweeps it with the OpenINTEL-style scan engine,
// writing one TSV record per domain — the raw dataset every analysis is
// built from.
//
// Usage:
//
//	regsec-scan [-scale 2000] [-seed 1] [-days 2016-06-01,2016-12-31] [-sample 1000] [-workers 16] [-o archive.tsv]
//	            [-retries 3] [-resweeps 2] [-fault-frac 0.5] [-fault-loss 0.2] [-fault-seed 1]
//	            [-cache] [-dedup] [-world-cache worlds/]
//	            [-checkpoint-dir state/] [-resume] [-shards 4]
//	            [-chunk 4096] [-mem-budget 256] [-spill-dir /scratch]
//	            [-cpuprofile cpu.prof] [-memprofile mem.prof]
//
//	regsec-scan -worker http://coordinator:7353 [-name w1] [-fault-profile vantage.txt] [-vantage-seed 1]
//	            (and the first form's checkpoint directory: required, the store shared with the coordinator)
//
// The second form joins a distributed sweep as a worker: the sweep plan
// (days, sample, world, sharding) comes from a regsec-sweepd coordinator,
// so the plan-shaping flags of the first form are rejected. The worker
// claims (day, shard) leases, scans them through its own exchange stack,
// flushes every chunk as a checksummed file into the shared
// -checkpoint-dir, reports each finished unit as a manifest of those
// files, and heartbeats while working; killing it at any instant is safe —
// the coordinator re-leases its unit. -fault-profile overlays this worker's
// own vantage-point fault rules (see faultnet.ParseProfile) without
// affecting the sweep plan.
//
// With -o the snapshots are written as a checksummed TSV archive (each
// day's section carries a length+CRC trailer and is one gzip member, so
// zcat prints the TSV) that regsec-report -archive can analyze and
// salvage; otherwise records go to stdout. The -fault-*
// flags wrap the materialized network in the fault injector, making a
// configured fraction of DNS operators lossy — a resilience drill for the
// scan path; each day's sweep-health report goes to stderr.
//
// The sweep is a bounded-memory pipeline sized for full-.com-scale runs:
// targets come off a cursor in chunks of -chunk domains, each chunk's DNS
// is materialized (and signed) lazily, and each day's records flow through
// a spill-to-disk writer bounded by -mem-budget MiB of RAM (run files land
// in -spill-dir). The archive bytes are the same at every chunk size; peak
// memory scales with the chunk, not the day, and a chunk at least as large
// as the sample materializes each day once.
//
// Long sweeps are crash-safe when -checkpoint-dir is set: every completed
// chunk is a durable file before the next starts, so SIGINT/SIGTERM (which
// drain the in-flight chunk's workers and drop that chunk) and SIGKILL
// leave the same directory — nothing is flushed on the way out. Re-running
// with -resume reuses every chunk file that verifies and scans the rest,
// and the final archive is byte-identical to an uninterrupted run. The
// directory's checkpoint.json, written once, names the sweep and its chunk
// geometry, so -resume with a different -chunk is refused; so is a
// -checkpoint-dir that holds a regsec-sweepd coordinator's state, with or
// without -resume.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/profdump"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

func main() {
	os.Exit(run())
}

func run() int {
	planOf := dsweep.RegisterPlanFlags(flag.CommandLine)
	outPath := flag.String("o", "", "write a checksummed TSV snapshot archive instead of stdout records")
	worldCache := flag.String("world-cache", "", "directory caching built worlds keyed by (seed, scale, config): build once, load many")
	cpDir := flag.String("checkpoint-dir", "", "directory for durable sweep checkpoints (enables crash-safe resume)")
	resume := flag.Bool("resume", false, "continue from an existing checkpoint in -checkpoint-dir")
	memBudget := flag.Int("mem-budget", 0, "MiB of records buffered per day before spilling sorted runs to disk (default 256)")
	spillDir := flag.String("spill-dir", "", "directory for spill run files (default: system temp dir)")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	workerURL := flag.String("worker", "", "join a distributed sweep as a worker of the coordinator at this URL")
	workerName := flag.String("name", "", "worker identity (default hostname-pid); unique per sweep")
	faultProfile := flag.String("fault-profile", "", "vantage-point fault profile file for this worker (worker mode only)")
	vantageSeed := flag.Int64("vantage-seed", 1, "seed for the vantage-point fault schedule (worker mode only)")
	flag.Parse()

	// Reject unusable values and contradictory flag combinations before any
	// work starts.
	plan, err := planOf()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	set := make(map[string]bool)
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	if err := validateFlags(set, plan.Chunk); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	stopProfiles, err := profdump.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()

	if *workerURL != "" {
		return runWorker(*workerURL, *workerName, *cpDir, *faultProfile, *vantageSeed)
	}

	spec := plan.Spec

	var cp *checkpoint.Store
	if *cpDir != "" {
		cp, err = checkpoint.Open(*cpDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		found, err := cp.Adopt(checkpoint.SweepLedger, *resume)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if !found && *resume {
			fmt.Fprintf(os.Stderr, "no checkpoint in %s; starting a fresh sweep\n", *cpDir)
		}
	}

	worldCfg := spec.WorldConfig()
	fmt.Fprintf(os.Stderr, "world (scale 1/%.0f, seed %d, key %s)...\n", spec.ScaleDiv, spec.Seed, worldCfg.Fingerprint())
	world, err := tldsim.BuildCached(*worldCache, worldCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rs := plan.Sweep(world, cp, dataset.SpillOptions{Dir: *spillDir, MemBudget: int64(*memBudget) << 20},
		func(day simtime.Day, h *scan.SweepHealth) { fmt.Fprintln(os.Stderr, h) })
	// Keep each day's scanner for the closing totals.
	var scanners []*scan.Scanner
	setup := rs.StreamSetup
	rs.StreamSetup = func(ctx context.Context, day simtime.Day) (*scan.Scanner, scan.TargetSource, scan.ChunkPrepare, error) {
		scanner, src, prepare, err := setup(ctx, day)
		if err == nil {
			scanners = append(scanners, scanner)
		}
		return scanner, src, prepare, err
	}

	// SIGINT/SIGTERM cancel the sweep context: workers drain and the
	// partial chunk is discarded; every finished chunk is already durable.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	start := time.Now()
	total, code := runStreamOut(ctx, rs, plan.Days, *outPath, cp, *cpDir)
	if code != 0 {
		return code
	}
	reportTotals(scanners, total, len(plan.Days), start)
	return 0
}

// printRecord writes one stdout TSV line.
func printRecord(r *dataset.Record) {
	class := r.Deployment().String()
	if r.Failed {
		class = "unmeasured(" + r.FailReason + ")"
	}
	fmt.Printf("%s\t%s\t%s\t%s\t%v\t%v\t%v\t%v\t%s\n",
		r.Domain, r.TLD, r.Operator, strings.Join(r.NSHosts, ","),
		r.HasDNSKEY, r.HasRRSIG, r.HasDS, r.ChainValid, class)
}

// reportTotals prints the sweep's closing stderr summary.
func reportTotals(scanners []*scan.Scanner, total, days int, start time.Time) {
	var queries int64
	var stackTotals exchange.Counters
	for _, s := range scanners {
		queries += s.Queries()
		stackTotals = stackTotals.Add(s.Stack().Counters())
	}
	fmt.Fprintf(os.Stderr, "scanned %d records across %d day(s) in %v (%d DNS queries)\n",
		total, days, time.Since(start).Round(time.Millisecond), queries)
	fmt.Fprintf(os.Stderr, "exchange stack: %s\n", stackTotals)
}

// runStreamOut drives the sweep and its output: day sections flow straight
// from each day's spill writer into a streamed archive with -o, or through
// a sorted-record stdout printer without. It returns the record total and
// the process exit code.
func runStreamOut(ctx context.Context, rs *scan.ResumableSweep, days []simtime.Day, outPath string, cp *checkpoint.Store, cpDir string) (int, int) {
	total := 0
	var aw *dataset.ArchiveWriter
	var sink scan.DaySink
	if outPath != "" {
		var err error
		aw, err = dataset.NewArchiveWriter(outPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 0, 1
		}
		sink = func(day simtime.Day, sw *dataset.SpillWriter) error {
			total += sw.Len()
			return aw.Section(sw)
		}
	} else {
		fmt.Println("#domain\ttld\toperator\tns\tdnskey\trrsig\tds\tvalid\tclass")
		sink = func(day simtime.Day, sw *dataset.SpillWriter) error {
			total += sw.Len()
			return sw.EachSorted(func(r *dataset.Record) error {
				printRecord(r)
				return nil
			})
		}
	}
	if err := rs.RunStream(ctx, days, sink); err != nil {
		if aw != nil {
			aw.Abort()
		}
		if errors.Is(err, context.Canceled) && cp != nil {
			fmt.Fprintf(os.Stderr, "interrupted; checkpoint in %s — re-run with -resume to continue\n", cpDir)
			return total, 130
		}
		fmt.Fprintln(os.Stderr, err)
		return total, 1
	}
	if aw != nil {
		if err := aw.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return total, 1
		}
		fmt.Fprintf(os.Stderr, "wrote %d snapshot(s) to %s\n", len(days), outPath)
	}
	// The archive is safely on disk; the checkpoint has served its purpose.
	if cp != nil {
		if err := cp.Clear(); err != nil {
			fmt.Fprintf(os.Stderr, "clearing checkpoint: %v\n", err)
		}
	}
	return total, 0
}

// planFlags are the flags that shape a sweep's output — the plan flags
// shared with regsec-sweepd, plus this command's own output and resume
// flags. In worker mode the plan comes from the coordinator, so setting any
// of them locally would silently disagree with every other participant —
// reject instead.
var planFlags = append(dsweep.PlanFlagNames(), "o", "resume", "world-cache")

// workerOnlyFlags only have meaning when joining a coordinator.
var workerOnlyFlags = []string{"name", "fault-profile", "vantage-seed"}

// spillFlags tune the local sweep's spill writer. They have no meaning in
// worker mode, where completed chunks go to the shared checkpoint
// directory instead of a local spill.
var spillFlags = []string{"mem-budget", "spill-dir"}

// validateFlags rejects contradictory combinations of explicitly set
// flags, and an unusable -chunk value, with errors that say which flag to
// drop or where to set it.
func validateFlags(set map[string]bool, chunk int) error {
	if set["worker"] {
		var bad []string
		for _, f := range planFlags {
			if set[f] {
				bad = append(bad, "-"+f)
			}
		}
		if len(bad) > 0 {
			return fmt.Errorf("-worker mode takes the sweep plan from the coordinator: drop %s here and set them on regsec-sweepd instead",
				strings.Join(bad, ", "))
		}
		for _, f := range spillFlags {
			if set[f] {
				return fmt.Errorf("-%s does not apply to -worker mode: workers flush chunks into the shared -checkpoint-dir, not a local spill", f)
			}
		}
		if !set["checkpoint-dir"] {
			return fmt.Errorf("-worker requires -checkpoint-dir: the chunk store shared with the coordinator")
		}
		return nil
	}
	if chunk < 0 {
		return fmt.Errorf("-chunk is a size in targets and cannot be negative (have %d)", chunk)
	}
	for _, f := range workerOnlyFlags {
		if set[f] {
			return fmt.Errorf("-%s only applies to -worker mode (pass -worker with the coordinator URL)", f)
		}
	}
	if set["resume"] && !set["checkpoint-dir"] {
		return fmt.Errorf("-resume requires -checkpoint-dir")
	}
	return nil
}

// runWorker joins a distributed sweep: fetch the plan, rebuild the world
// from its spec, and claim leases until the coordinator says done.
func runWorker(url, name, cpDir, profilePath string, vantageSeed int64) int {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	client := &dsweep.Client{Base: url}
	plan, err := client.FetchPlan(ctx)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if plan.Spec == nil {
		fmt.Fprintln(os.Stderr, "coordinator's plan carries no world spec; it was not started by regsec-sweepd")
		return 1
	}
	var vantage []faultnet.Rule
	if profilePath != "" {
		data, err := os.ReadFile(profilePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		if vantage, err = faultnet.ParseProfile(string(data)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "vantage profile: %d fault rule(s) from %s\n", len(vantage), profilePath)
	}
	if name == "" {
		host, _ := os.Hostname()
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}
	fmt.Fprintf(os.Stderr, "worker %s joining sweep %q (%d day(s) × %d shard(s), chunks of %d)\n",
		name, plan.Fingerprint, len(plan.Days), plan.Shards, scan.ChunkSize(plan.Chunk))

	// Shards are scanned chunk by chunk with each chunk durably flushed, so
	// killing this process mid-shard only costs the chunk in flight.
	cfg := dsweep.WorkerConfig{Name: name, Coord: client}
	cfg.StreamSetup, err = plan.Spec.BuildStream(vantage, vantageSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	cfg.Store, err = checkpoint.Open(cpDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	w, err := dsweep.NewWorker(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if err := w.Run(ctx); err != nil {
		if errors.Is(err, context.Canceled) {
			fmt.Fprintf(os.Stderr, "worker %s interrupted; its in-flight lease will expire and be re-leased\n", name)
			return 130
		}
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(os.Stderr, "worker %s done: plan complete\n", name)
	return 0
}
