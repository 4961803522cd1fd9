// Command bench is the repository's end-to-end pipeline benchmark: one
// invocation runs one workload — cache-load a world, serve a materialized
// day over loopback UDP, sweep it through the exchange stack into an
// archive, tail-ingest the archive, query it, regenerate the paper's tables
// and figures — and prints its metrics. See README.md beside this file.
//
//	bash bench/run.sh -workload paper_clean            # end-to-end metrics
//	bash bench/run.sh -workload paper_clean -trace 1   # per-layer metrics + out/trace-paper_clean.json
//	bash bench/run.sh -all                             # every metric of every workload
//	bash bench/run.sh -repeat 3                        # two sets of 3 runs each, must agree
//	bash bench/run.sh -compare old.json new.json       # exit 1 on a regression
//
// run.sh builds this package and starts it in bench/, where it expects to run.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: paper_clean, signed_wide, faulty_durable, scale_40")
		seed     = flag.Int64("seed", 1, "drives world seed, sample draw, query-mix shuffle, fault seed and mutation order")
		seconds  = flag.Int("seconds", 0, "run length the stages are sized for (default: run_seconds of BENCHMARK.json)")
		trace    = flag.String("trace", "0", "1 records spans and reports the per-layer metrics; 0 reports the end-to-end metrics")
		all      = flag.Bool("all", false, "run every workload, untraced and traced, and print every metric")
		repeat   = flag.Int("repeat", 0, "run two sets of this many runs per workload and require them to agree within the bounds")
		compare  = flag.Bool("compare", false, "compare two result files: -compare old.json new.json")
	)
	flag.Parse()

	spec, err := loadSpec()
	if err != nil {
		fatal(err)
	}
	if *seconds <= 0 {
		*seconds = spec.RunSeconds
	}
	traced, err := strconv.ParseBool(*trace)
	if err != nil {
		fatal(fmt.Errorf("-trace takes 0 or 1, not %q", *trace))
	}

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes two files: old.json new.json"))
		}
		old, err := readResultSet(flag.Arg(0))
		if err != nil {
			fatal(err)
		}
		cur, err := readResultSet(flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if compareSets(os.Stdout, spec, old, cur, false) {
			os.Exit(1)
		}
	case *all:
		os.Exit(runAll(spec, *seed, *seconds))
	case *repeat > 0:
		os.Exit(runRepeat(spec, *repeat, *seed, *seconds))
	case *workload != "":
		p, err := findProfile(*workload)
		if err != nil {
			fatal(err)
		}
		res, err := runWorkload(context.Background(), p, *seed, *seconds, traced)
		if err != nil {
			fatal(err)
		}
		res.print(os.Stderr)
		if path, err := res.save(); err != nil {
			fatal(err)
		} else {
			fmt.Fprintf(os.Stderr, "   wrote %s\n", path)
		}
		line, err := json.Marshal(contractLine{res.Correct, res.Attempted, res.Failed, res.Metrics})
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if !res.Correct {
			os.Exit(1)
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(1)
}

// child runs one workload in a process of its own — so peak RSS and cold
// caches are per run — and reads back the result file it saves.
func child(workload string, seed int64, seconds int, traced bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	flagVal := "0"
	if traced {
		flagVal = "1"
	}
	cmd := exec.Command(self, "-workload", workload, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.Itoa(seconds), "-trace", flagVal)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s (seed %d): %w", workload, seed, err)
	}
	set, err := readResultSet(resultPath(workload, traced))
	if err != nil {
		return nil, err
	}
	return set.Runs[workload][0], nil
}

// runAll runs every workload untraced and traced and writes out/all.json.
func runAll(spec *benchSpec, seed int64, seconds int) int {
	set := &resultSet{Host: readHost(), Runs: make(map[string][]*result)}
	code := 0
	for _, w := range spec.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := child(w.Name, seed, seconds, traced)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench:", err)
				code = 1
				continue
			}
			set.Runs[w.Name] = append(set.Runs[w.Name], res)
			res.print(os.Stdout)
		}
	}
	path := filepath.Join(mustOutDir(), "all.json")
	if err := set.write(path); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s\n", path)
	return code
}

// runRepeat runs two sets of k untraced runs per workload, interleaved so
// drift in the host hits both alike, compares them with the comparator and
// fails if they disagree: a benchmark whose own reruns differ by more than
// its bounds cannot hold a later change to them. Seeds advance per run, the
// same sequence on both sides; the archive digest of equal seeds must match.
func runRepeat(spec *benchSpec, k int, seed int64, seconds int) int {
	a := &resultSet{Host: readHost(), Runs: make(map[string][]*result)}
	b := &resultSet{Host: a.Host, Runs: make(map[string][]*result)}
	code := 0
	for _, w := range spec.Workloads {
		for i := 0; i < k; i++ {
			for _, side := range []*resultSet{a, b} {
				res, err := child(w.Name, seed+int64(i), seconds, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				side.Runs[w.Name] = append(side.Runs[w.Name], res)
			}
			ra, rb := a.Runs[w.Name][i], b.Runs[w.Name][i]
			if ra.ArchiveSHA256 != rb.ArchiveSHA256 {
				fmt.Printf("%s seed %d: archive digests differ across runs (%s, %s)\n", w.Name, ra.Seed, ra.ArchiveSHA256, rb.ArchiveSHA256)
				code = 1
			}
		}
	}
	for name, set := range map[string]*resultSet{"repeat-a.json": a, "repeat-b.json": b} {
		if err := set.write(filepath.Join(mustOutDir(), name)); err != nil {
			fatal(err)
		}
	}
	if compareSets(os.Stdout, spec, a, b, true) {
		code = 1
	}
	return code
}
