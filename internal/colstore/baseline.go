package colstore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"securepki.org/registrarsec/internal/dataset"
)

// BenchResult is one measured benchmark in a Baseline file.
type BenchResult struct {
	Name        string  `json:"name"`
	Iterations  int     `json:"iterations"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
}

// Baseline is the BENCH_colstore.json schema: the colstore engine's
// measured trajectory, emitted by cmd/regsec-bench and archived by CI so
// future PRs can compare against it.
type Baseline struct {
	Schema       string  `json:"schema"`
	GoMaxProcs   int     `json:"go_max_procs"`
	ScaleDivisor float64 `json:"scale_divisor"`
	Seed         int64   `json:"seed"`
	Domains      int     `json:"domains"`
	Operators    int     `json:"operators"`
	// Benchmarks holds every workload, the aggregations in two variants:
	// "<work>/colstore" on the index's columns and "<work>/legacy" through
	// internal/analysis over a materialized snapshot.
	Benchmarks []BenchResult `json:"benchmarks"`
	// Speedups maps workload name to legacy-ns-per-op / colstore-ns-per-op.
	Speedups map[string]float64 `json:"speedups"`
}

// BaselineSchema versions the JSON layout.
const BaselineSchema = "regsec-colstore-bench/v1"

// ComputeSpeedups fills Speedups from Benchmarks: every "<work>/legacy"
// entry with a "<work>/colstore" sibling yields one ratio.
func (b *Baseline) ComputeSpeedups() {
	ns := map[string]float64{}
	for _, r := range b.Benchmarks {
		ns[r.Name] = r.NsPerOp
	}
	b.Speedups = map[string]float64{}
	for _, r := range b.Benchmarks {
		work, ok := cutSuffix(r.Name, "/colstore")
		if !ok {
			continue
		}
		if legacy, ok := ns[work+"/legacy"]; ok && r.NsPerOp > 0 {
			b.Speedups[work] = legacy / r.NsPerOp
		}
	}
}

func cutSuffix(s, suffix string) (string, bool) {
	if len(s) < len(suffix) || s[len(s)-len(suffix):] != suffix {
		return s, false
	}
	return s[:len(s)-len(suffix)], true
}

// WriteFile durably and atomically writes the baseline as indented JSON.
func (b *Baseline) WriteFile(path string) error {
	if b.Schema == "" {
		b.Schema = BaselineSchema
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return fmt.Errorf("colstore: encoding baseline: %w", err)
	}
	return dataset.WriteFileAtomic(path, append(data, '\n'))
}

// ReadBaseline loads a previously written baseline (for trajectory
// comparisons in future PRs).
func ReadBaseline(path string) (*Baseline, error) {
	data, err := os.ReadFile(filepath.Clean(path))
	if err != nil {
		return nil, err
	}
	var b Baseline
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("colstore: parsing baseline %s: %w", path, err)
	}
	return &b, nil
}
