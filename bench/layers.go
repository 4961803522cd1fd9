package main

import (
	"securepki.org/registrarsec/internal/exchange"
)

// perLayerInputs is everything the stages of a traced run measured.
type perLayerInputs struct {
	tr       *tracer
	sv       *serveResult
	sw       *sweepResult
	untraced *sweepResult
	ob       *observeResult
	rp       *reportResult
	stages   map[string]*stageMeter
	stageOps map[string]float64

	buildS, saveS, loadS float64
	worldBytes           int64
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perLayer derives the per-layer metrics that come from spans and from the
// layers' own counters (the probes add the rest).
func perLayer(m *metricSet, p profile, in perLayerInputs) {
	tr, sv, sw, ob := in.tr, in.sv, in.sw, in.ob
	records := float64(sw.Records)

	m.set("tldsim.world_build_s", "s", in.buildS)
	m.set("tldsim.world_save_s", "s", in.saveS)
	m.set("tldsim.world_load_ms", "ms", in.loadS*1e3)
	m.set("tldsim.world_file_mb", "MB", float64(in.worldBytes)/1e6)
	m.set("tldsim.sample_draw_ms", "ms", sw.SampleDrawMs)
	prepareS, _ := tr.total("tldsim.prepare")
	m.set("tldsim.prepare_s", "s", prepareS)
	m.set("tldsim.prepare_us_per_domain", "us", ratio(prepareS*1e6, records))
	m.set("dnssec.signed_share", "ratio", ratio(float64(sw.WithDNSKEY), records))

	// Serving: the server's and the cache's own counters over the stage.
	q := float64(sv.Server.Queries)
	m.set("dnsserver.cache_hit_ratio", "ratio", ratio(float64(sv.Server.CacheHits), q))
	m.set("dnsserver.slow_path_ratio", "ratio", ratio(float64(sv.Server.SlowPath), q))
	m.set("dnsserver.cache_fills", "count", float64(sv.Cache.Fills))
	m.set("dnsserver.cache_rejected", "count", float64(sv.Cache.Rejected))
	m.set("dnsserver.cache_flushed", "count", float64(sv.Cache.Flushed))
	m.set("dnsserver.cache_entries", "count", float64(sv.Cache.Entries))
	m.set("dnsserver.dropped", "count", float64(sv.Server.Dropped))
	m.set("dnsserver.malformed", "count", float64(sv.Server.Malformed))
	m.set("dnsserver.mutations_applied", "count", float64(sv.Mutations))
	// What a query costs beyond the handler: syscalls, scheduler, generator.
	// Per query the closed loop spends conns/qps; the handler's share of it
	// is the hit/miss-weighted cost of the two paths the probes time.
	handlerUs := (ratio(float64(sv.Server.CacheHits), q)*m.vals["dnsserver.fast_ns"].Value +
		ratio(float64(sv.Server.SlowPath), q)*m.vals["dnsserver.full_ns"].Value) / 1e3
	m.set("dnsserver.udp_overhead_us", "us", ratio(serveConns*1e6, sv.Closed.QPS)-handlerUs)

	m.set("loadgen.sent", "count", float64(sv.Closed.Sent))
	m.set("loadgen.lost", "count", float64(sv.Closed.Lost))
	m.set("loadgen.p50_us", "us", us(sv.Closed.P50))
	m.set("loadgen.p999_us", "us", us(sv.Closed.P999))
	m.set("loadgen.open_rate_qps", "q/s", float64(sv.OpenRate))
	m.set("loadgen.open_p99_us", "us", us(sv.Open.P99))
	m.set("loadgen.open_achieved_ratio", "ratio", ratio(sv.Open.QPS, float64(sv.OpenRate)))

	// Sweep: spans at the stack's outermost and innermost layer, and the
	// stack's own counters, merged over days by the scanner's health report.
	stackS, _ := tr.total("exchange.stack")
	memnetS, memnetN := tr.total("dnsserver.memnet")
	var c exchange.Counters = sw.Health.Exchange
	m.set("dnsserver.memnet_s", "s", memnetS)
	m.set("dnsserver.memnet_us_per_exchange", "us", ratio(memnetS*1e6, float64(memnetN)))
	m.set("exchange.stack_s", "s", stackS)
	m.set("exchange.self_s", "s", stackS-memnetS)
	m.set("exchange.transport_exchanges", "count", float64(c.Transport.Exchanges))
	m.set("exchange.exchanges_per_record", "ratio", ratio(float64(c.Transport.Exchanges), records))
	m.set("exchange.retries", "count", float64(c.Retry.Retries))
	m.set("exchange.cache_hit_ratio", "ratio", ratio(float64(c.Cache.Hits), float64(c.Cache.Hits+c.Cache.Misses)))
	m.set("exchange.dedup_hits", "count", float64(c.Dedup.Hits))
	m.set("exchange.errors", "count", float64(c.Transport.Errors))

	m.set("scan.chunks", "count", float64(sw.Chunks))
	m.set("scan.chunk_s_p50", "s", median(tr.durations("scan.chunk")))
	m.set("scan.resweeps", "count", float64(sw.Health.Resweeps))
	m.set("scan.failed_records", "count", float64(sw.Failed))
	m.set("scan.worker_busy_ratio", "ratio", ratio(stackS, scanWorkers*(sw.WallS-prepareS)))
	m.set("scan.peak_live_heap_mb", "MB", in.stages["sweep"].PeakMB)

	m.set("dataset.spill_runs", "count", float64(sw.SpillRuns))
	m.set("dataset.spill_bytes", "B", float64(sw.SpillBytes))
	m.set("dataset.section_merge_s", "s", sw.MergeS)
	m.set("dataset.archive_mb", "MB", float64(sw.ArchiveBytes)/1e6)
	m.set("checkpoint.chunk_files", "count", float64(sw.CkptFiles))
	m.set("checkpoint.bytes", "B", float64(sw.CkptBytes))

	lag := sortedCopy(ob.LagMs)
	m.set("apiserv.section_lag_ms_p50", "ms", quantile(lag, 0.5))
	m.set("apiserv.section_lag_ms_max", "ms", lag[len(lag)-1])
	m.set("apiserv.restart_ready_ms", "ms", ob.RestartReadyMs)
	for i, name := range []string{"table1", "operators", "series", "dsgap"} {
		m.set("apiserv."+name+"_p50_us", "us", median(ob.ByPathUs[i]))
	}
	m.set("apiserv.shed", "count", float64(ob.Shed))
	m.set("apiserv.non200", "count", float64(ob.Non200))

	for _, s := range stageNames {
		st, ops := in.stages[s], in.stageOps[s]
		m.set("stage."+s+".wall_s", "s", st.Wall)
		m.set("stage."+s+".cpu_s", "s", st.CPU)
		m.set("stage."+s+".allocs_per_op", "count", ratio(float64(st.Allocs), ops))
		m.set("stage."+s+".alloc_bytes_per_op", "B", ratio(float64(st.Bytes), ops))
		m.set("stage."+s+".peak_live_heap_mb", "MB", st.PeakMB)
	}
	// Tracing overhead on the stage with the most spans: the same sweep run
	// without and with the tracer, in this process.
	m.set("trace.overhead_ratio", "ratio", ratio(records/sw.WallS, float64(in.untraced.Records)/in.untraced.WallS))
}
