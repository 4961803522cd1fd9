package main

import (
	"encoding/json"
	"fmt"
	"os"
)

// metricSpec is one metric as BENCHMARK.json declares it. Bound is the share
// of the baseline median an end-to-end metric may worsen by before it counts
// as a regression; per-layer metrics have none.
type metricSpec struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchSpec mirrors BENCHMARK.json.
type benchSpec struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

// specPath is BENCHMARK.json as seen from bench/, where the benchmark runs
// (run.sh and go test -C bench ./... both start there).
const specPath = "../BENCHMARK.json"

func loadSpec() (*benchSpec, error) {
	data, err := os.ReadFile(specPath)
	if err != nil {
		return nil, fmt.Errorf("%w (the benchmark runs from bench/: bash bench/run.sh)", err)
	}
	var s benchSpec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", specPath, err)
	}
	return &s, nil
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects the metrics of one run and refuses a name reported
// twice, so "emitted exactly once" is enforced where metrics are produced.
type metricSet struct {
	vals map[string]value
	dup  []string
}

func newMetricSet() *metricSet { return &metricSet{vals: make(map[string]value)} }

func (m *metricSet) set(name, unit string, v float64) {
	if _, ok := m.vals[name]; ok {
		m.dup = append(m.dup, name)
	}
	m.vals[name] = value{Value: v, Unit: unit}
}

// endToEndUnits and perLayerUnits name every metric a run must report, with
// its unit. BENCHMARK.json carries the same two lists (plus direction and
// bound); TestSpecMatchesBenchmarkJSON keeps them from drifting apart.
var endToEndUnits = [][2]string{
	{"setup_s", "s"},
	{"disk_bytes_per_record", "B"},
}

// demotedUnits were specified as end-to-end metrics and are reported per
// layer instead, held by no bound: measured over two passes of ten seeds they
// did not stay within half their bound on every workload (README.md,
// "Repeatability"). A run computes them all the same; the traced run reports
// them, and an untraced run's result file carries them for -compare.
var demotedUnits = [][2]string{
	{"pipeline_wall_s", "s"},
	{"sweep_records_per_s", "rec/s"},
	{"serve_qps", "q/s"},
	{"serve_p99_us", "us"},
	{"ingest_records_per_s", "rec/s"},
	{"api_reads_per_s", "req/s"},
	{"api_p99_us", "us"},
	{"report_wall_s", "s"},
	{"peak_rss_mb", "MB"},
}

var stageNames = []string{"serve", "sweep", "ingest", "query", "report"}

var perLayerUnits = func() [][2]string {
	list := [][2]string{
		{"tldsim.world_build_s", "s"},
		{"tldsim.world_save_s", "s"},
		{"tldsim.world_load_ms", "ms"},
		{"tldsim.world_file_mb", "MB"},
		{"tldsim.sample_draw_ms", "ms"},
		{"tldsim.prepare_s", "s"},
		{"tldsim.prepare_us_per_domain", "us"},

		{"dnssec.keygen_us", "us"},
		{"dnssec.sign_us", "us"},
		{"dnssec.verify_us", "us"},
		{"dnssec.ds_digest_us", "us"},
		{"zone.sign_us_per_rrset", "us"},
		{"dnssec.signed_share", "ratio"},

		{"dnswire.pack_ns", "ns"},
		{"dnswire.unpack_ns", "ns"},
		{"dnswire.parse_query_ns", "ns"},
		{"dnswire.resp_bytes_p50", "B"},

		{"dnsserver.fast_ns", "ns"},
		{"dnsserver.full_ns", "ns"},
		{"dnsserver.memnet_s", "s"},
		{"dnsserver.memnet_us_per_exchange", "us"},
		{"dnsserver.cache_hit_ratio", "ratio"},
		{"dnsserver.slow_path_ratio", "ratio"},
		{"dnsserver.cache_fills", "count"},
		{"dnsserver.cache_rejected", "count"},
		{"dnsserver.cache_flushed", "count"},
		{"dnsserver.cache_entries", "count"},
		{"dnsserver.dropped", "count"},
		{"dnsserver.malformed", "count"},
		{"dnsserver.mutations_applied", "count"},
		{"dnsserver.udp_overhead_us", "us"},

		{"loadgen.sent", "count"},
		{"loadgen.lost", "count"},
		{"loadgen.p50_us", "us"},
		{"loadgen.p999_us", "us"},
		{"loadgen.open_rate_qps", "q/s"},
		{"loadgen.open_p99_us", "us"},
		{"loadgen.open_achieved_ratio", "ratio"},

		{"exchange.stack_s", "s"},
		{"exchange.self_s", "s"},
		{"exchange.transport_exchanges", "count"},
		{"exchange.exchanges_per_record", "ratio"},
		{"exchange.retries", "count"},
		{"exchange.cache_hit_ratio", "ratio"},
		{"exchange.dedup_hits", "count"},
		{"exchange.errors", "count"},

		{"scan.chunks", "count"},
		{"scan.chunk_s_p50", "s"},
		{"scan.resweeps", "count"},
		{"scan.failed_records", "count"},
		{"scan.worker_busy_ratio", "ratio"},
		{"scan.peak_live_heap_mb", "MB"},

		{"dataset.spill_append_s", "s"},
		{"dataset.spill_runs", "count"},
		{"dataset.spill_bytes", "B"},
		{"dataset.section_merge_s", "s"},
		{"dataset.archive_mb", "MB"},
		{"dataset.read_archive_mb_per_s", "MB/s"},
		{"dataset.tail_mb_per_s", "MB/s"},

		{"checkpoint.chunk_files", "count"},
		{"checkpoint.bytes", "B"},

		{"colstore.append_day_ms", "ms"},
		{"colstore.freeze_ms", "ms"},
		{"colstore.save_ms", "ms"},
		{"colstore.load_ms", "ms"},
		{"colstore.world_bytes_per_domain", "B"},
		{"colstore.snapshot_cold_ms", "ms"},
		{"colstore.snapshot_warm_ns", "ns"},
		{"colstore.series_us", "us"},
		{"colstore.operator_cdf_ms", "ms"},
		{"colstore.overview_us", "us"},

		{"apiserv.section_lag_ms_p50", "ms"},
		{"apiserv.section_lag_ms_max", "ms"},
		{"apiserv.restart_ready_ms", "ms"},
		{"apiserv.table1_p50_us", "us"},
		{"apiserv.operators_p50_us", "us"},
		{"apiserv.series_p50_us", "us"},
		{"apiserv.dsgap_p50_us", "us"},
		{"apiserv.shed", "count"},
		{"apiserv.non200", "count"},
	}
	for _, s := range stageNames {
		list = append(list,
			[2]string{"stage." + s + ".wall_s", "s"},
			[2]string{"stage." + s + ".cpu_s", "s"},
			[2]string{"stage." + s + ".allocs_per_op", "count"},
			[2]string{"stage." + s + ".alloc_bytes_per_op", "B"},
			[2]string{"stage." + s + ".peak_live_heap_mb", "MB"},
		)
	}
	list = append(list,
		[2]string{"runtime.gc_cpu_fraction", "ratio"},
		[2]string{"trace.overhead_ratio", "ratio"},
	)
	return append(list, demotedUnits...)
}()

// pick returns the subset of m that names lists, and the names missing.
func pick(m *metricSet, names [][2]string) (map[string]value, []string) {
	out := make(map[string]value, len(names))
	var missing []string
	for _, n := range names {
		v, ok := m.vals[n[0]]
		if !ok {
			missing = append(missing, n[0])
			continue
		}
		out[n[0]] = v
	}
	return out, missing
}
