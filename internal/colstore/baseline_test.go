package colstore

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBaselineWriteFileSharesNoTempName: the baseline goes through the
// shared durable commit, so a concurrent run's temp file is its own —
// WriteFile used to stage in a fixed path+".tmp", which a second writer
// would overwrite and rename away — and a finished write leaves only the
// baseline behind.
func TestBaselineWriteFileSharesNoTempName(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "BENCH_colstore.json")
	other := path + ".tmp"
	if err := os.WriteFile(other, []byte("another run's half-written baseline"), 0o644); err != nil {
		t.Fatal(err)
	}
	b := &Baseline{Domains: 3, Benchmarks: []BenchResult{
		{Name: "Overview/colstore", NsPerOp: 10}, {Name: "Overview/legacy", NsPerOp: 40},
	}}
	b.ComputeSpeedups()
	for i := 0; i < 2; i++ {
		if err := b.WriteFile(path); err != nil {
			t.Fatal(err)
		}
	}
	if got, err := os.ReadFile(other); err != nil || string(got) != "another run's half-written baseline" {
		t.Fatalf("the other run's temp file now holds %q, %v", got, err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("directory holds %v, want the baseline and the other run's file only", entries)
	}
	back, err := ReadBaseline(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Schema != BaselineSchema || back.Speedups["Overview"] != 4 || !reflect.DeepEqual(back.Benchmarks, b.Benchmarks) {
		t.Fatalf("baseline did not round-trip: %+v", back)
	}
}
