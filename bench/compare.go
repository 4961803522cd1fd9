package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
	"strings"
)

// resultSet is what -all and -repeat write and -compare reads: runs grouped
// by workload. A single run's file (out/e2e-W.json) reads as a set of one.
type resultSet struct {
	Host hostInfo             `json:"host"`
	Runs map[string][]*result `json:"runs"`
}

func readResultSet(path string) (*resultSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set resultSet
	if err := json.Unmarshal(data, &set); err == nil && len(set.Runs) > 0 {
		return &set, nil
	}
	var one result
	if err := json.Unmarshal(data, &one); err != nil || one.Workload == "" {
		return nil, fmt.Errorf("%s is neither a result set nor a single result", path)
	}
	return &resultSet{Host: one.Host, Runs: map[string][]*result{one.Workload: {&one}}}, nil
}

func (s *resultSet) write(path string) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// quartiles summarizes one metric over the runs of one side.
type quartiles struct {
	N           int
	Q1, Med, Q3 float64
}

func quartilesOf(runs []*result, metric string) quartiles {
	var v []float64
	for _, r := range runs {
		if !r.Traced {
			if x, ok := r.Metrics[metric]; ok {
				v = append(v, x.Value)
			} else if x, ok := r.Demoted[metric]; ok {
				v = append(v, x.Value)
			}
		}
	}
	s := sortedCopy(v)
	return quartiles{N: len(s), Q1: quantile(s, 0.25), Med: quantile(s, 0.5), Q3: quantile(s, 0.75)}
}

// worsening is how much worse new is than old, as a share of old, in the
// metric's own direction: positive is worse. A baseline of zero has no
// share; any move off it is infinite, in the direction it went.
func worsening(spec metricSpec, old, new float64) float64 {
	worse := new - old
	if spec.Better == "higher" {
		worse = old - new
	}
	switch {
	case worse == 0:
		return 0
	case old == 0:
		return math.Inf(int(math.Copysign(1, worse)))
	}
	return worse / math.Abs(old)
}

// inputsOf lists the distinct (seed, seconds) of a side's untraced runs,
// sorted. Two sides are comparable only when these agree: the seed picks the
// world, the sample and the faults, and the run length scales the target
// counts.
func inputsOf(runs []*result) string {
	seen := make(map[string]bool)
	var in []string
	for _, r := range runs {
		if k := fmt.Sprintf("seed %d x %d s", r.Seed, r.Seconds); !r.Traced && !seen[k] {
			seen[k] = true
			in = append(in, k)
		}
	}
	sort.Strings(in)
	return strings.Join(in, ", ")
}

// failedShare is ops_failed ÷ ops_attempted over the untraced runs.
func failedShare(runs []*result) float64 {
	var att, failed int64
	for _, r := range runs {
		if !r.Traced {
			att += r.Attempted
			failed += r.Failed
		}
	}
	if att == 0 {
		return 0
	}
	return float64(failed) / float64(att)
}

// compareSets prints one row per (workload, end-to-end metric) with both
// sides' medians and quartiles and the verdict, and reports whether any row
// regressed: a median worse than the baseline's by more than the metric's
// bound, a higher failed share, an incorrect run on the new side, a workload
// of the baseline that the new side lacks, or sides run on different seeds or
// run lengths. A row whose baseline's interquartile range exceeds the bound
// is marked noisy — the verdict stands, the reader is warned. The demoted
// metrics an untraced run carries are printed after them, without a verdict.
//
// With symmetric set the two sides are reruns of one program (-repeat): a
// median that differs by more than the bound in either direction fails.
func compareSets(w io.Writer, spec *benchSpec, old, new *resultSet, symmetric bool) (regressed bool) {
	var workloads []string
	for name := range old.Runs {
		workloads = append(workloads, name)
	}
	sort.Strings(workloads)
	fmt.Fprintf(w, "%-15s %-22s %14s %14s %8s %6s  %s\n", "workload", "metric", "old median", "new median", "change", "bound", "verdict")
	for _, name := range workloads {
		o, n := old.Runs[name], new.Runs[name]
		if len(n) == 0 {
			fmt.Fprintf(w, "%-15s MISSING: the new side has no run of it\n", name)
			regressed = true
			continue
		}
		if io, in := inputsOf(o), inputsOf(n); io != in {
			fmt.Fprintf(w, "%-15s NOT COMPARABLE: old ran %s; new ran %s\n", name, io, in)
			regressed = true
			continue
		}
		for _, ms := range spec.EndToEnd {
			qo, qn := quartilesOf(o, ms.Name), quartilesOf(n, ms.Name)
			if qo.N == 0 || qn.N == 0 {
				fmt.Fprintf(w, "%-15s %-22s %14s %14s %8s %6.2f  MISSING\n", name, ms.Name, "-", "-", "-", ms.Bound)
				regressed = true
				continue
			}
			wr := worsening(ms, qo.Med, qn.Med)
			verdict := "ok"
			switch {
			case wr > ms.Bound:
				verdict = "REGRESSED"
				regressed = true
			case wr < -ms.Bound && symmetric:
				verdict = "DIFFERS"
				regressed = true
			case wr < -ms.Bound:
				verdict = "improved"
			}
			if spread := (qo.Q3 - qo.Q1) / qo.Med; qo.N > 1 && spread > ms.Bound {
				verdict += fmt.Sprintf(" (noisy: baseline IQR %.0f%% of median)", 100*spread)
			}
			fmt.Fprintf(w, "%-15s %-22s %14.4f %14.4f %+7.1f%% %6.2f  %s\n", name, ms.Name, qo.Med, qn.Med, -100*wr, ms.Bound, verdict)
			if qo.N > 1 || qn.N > 1 {
				fmt.Fprintf(w, "%-15s %-22s   [%.4f .. %.4f] n=%d   [%.4f .. %.4f] n=%d\n", "", "", qo.Q1, qo.Q3, qo.N, qn.Q1, qn.Q3, qn.N)
			}
		}
		// The demoted metrics have no bound to hold them to: the change is
		// printed for a reader weighing paired runs, and decides nothing.
		for _, ms := range spec.PerLayer {
			qo, qn := quartilesOf(o, ms.Name), quartilesOf(n, ms.Name)
			if qo.N == 0 || qn.N == 0 {
				continue
			}
			fmt.Fprintf(w, "%-15s %-22s %14.4f %14.4f %+7.1f%% %6s  no bound (IQR %.0f%% | %.0f%% of median)\n", name, ms.Name, qo.Med, qn.Med,
				-100*worsening(ms, qo.Med, qn.Med), "-", 100*(qo.Q3-qo.Q1)/qo.Med, 100*(qn.Q3-qn.Q1)/qn.Med)
		}
		fo, fn := failedShare(o), failedShare(n)
		verdict := "ok"
		if fn > fo {
			verdict = "REGRESSED"
			regressed = true
		}
		fmt.Fprintf(w, "%-15s %-22s %14.6f %14.6f %8s %6s  %s\n", name, "failed share of ops", fo, fn, "", "", verdict)
		for _, r := range n {
			if !r.Correct {
				fmt.Fprintf(w, "%-15s an oracle failed on the new side: %v\n", name, r.Errors)
				regressed = true
			}
		}
	}
	return regressed || len(workloads) == 0
}
