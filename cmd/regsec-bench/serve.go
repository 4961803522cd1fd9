package main

import (
	"context"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/loadgen"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// serveBenchConfig parameterizes the authoritative-serving benchmark.
type serveBenchConfig struct {
	ScaleDivisor float64
	Seed         int64
	Sample       int
	Rate         int
	Duration     time.Duration
	MinSpeedup   float64
	MaxAllocs    int64
	OutPath      string
}

// serveBaseline is the BENCH_serve.json schema. The handler section is the
// in-process request path with the network removed — the seed path
// (Unpack → ServeDNS → Pack) against the warm wire fast path — which is
// what the speedup and allocation gates run on, because it is deterministic
// on shared CI runners. The loopback sections drive the real server's
// sockets with internal/loadgen: closed-loop sustainable QPS, and an
// open-loop run at a fixed offered rate for honest latency percentiles.
type serveBaseline struct {
	Schema       string  `json:"schema"`
	GoMaxProcs   int     `json:"gomaxprocs"`
	ScaleDivisor float64 `json:"scale_divisor"`
	Seed         int64   `json:"seed"`
	Sample       int     `json:"sample"`
	QueryMix     int     `json:"query_mix"`

	SeedNsPerOp      float64 `json:"seed_ns_per_op"`
	SeedAllocs       int64   `json:"seed_allocs_per_op"`
	FastNsPerOp      float64 `json:"fast_ns_per_op"`
	FastAllocs       int64   `json:"fast_allocs_per_op"`
	HandlerSpeedup   float64 `json:"handler_speedup"`
	MinSpeedup       float64 `json:"min_speedup"`
	MaxAllocsAllowed int64   `json:"max_allocs_allowed"`

	ServerLoop loadgen.Result        `json:"server_closed_loop"`
	OpenLoop   loadgen.Result        `json:"open_loop"`
	Server     dnsserver.ServerStats `json:"server_stats"`
	Cache      dnsserver.CacheStats  `json:"cache_stats"`
}

const serveBaselineSchema = "regsec-bench-serve/2"

// runServeBench measures the serving hot path and writes BENCH_serve.json.
// It exits nonzero when the warm fast path is less than MinSpeedup times
// the seed path or allocates more than MaxAllocs per query.
func runServeBench(world *tldsim.World, cfg serveBenchConfig) int {
	fmt.Fprintf(os.Stderr, "serve bench: materializing %d domains...\n", cfg.Sample)
	domains := world.Sample(cfg.Sample, cfg.Seed)
	mat, err := tldsim.Materialize(simtime.End, domains)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	auth := dnsserver.NewAuthoritative()
	sharded := dnsserver.NewSharded(dnsserver.ShardedConfig{})
	for tld, ns := range mat.TLDServers {
		a, ok := mat.Net.Lookup(ns).(*dnsserver.Authoritative)
		if !ok {
			fmt.Fprintf(os.Stderr, "serve bench: no authoritative for %q\n", tld)
			return 1
		}
		z := a.Zone(tld)
		auth.AddZone(z)
		sharded.AddZone(z)
	}

	names := make([]string, 0, 2*len(domains))
	for _, d := range domains {
		names = append(names, d.Name, "www."+d.Name)
	}
	types := []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeSOA, dnswire.TypeA}
	mix, err := loadgen.QueryMix(names, types, 0.3, cfg.Seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	b := serveBaseline{
		Schema:           serveBaselineSchema,
		GoMaxProcs:       runtime.GOMAXPROCS(0),
		ScaleDivisor:     cfg.ScaleDivisor,
		Seed:             cfg.Seed,
		Sample:           cfg.Sample,
		QueryMix:         len(mix),
		MinSpeedup:       cfg.MinSpeedup,
		MaxAllocsAllowed: cfg.MaxAllocs,
	}

	// Warm the cache: run every mix packet through the full wire path once,
	// then confirm the whole mix hits.
	sc := dnsserver.NewWireScratch()
	out := make([]byte, 0, 4096)
	for _, pkt := range mix {
		if resp := sharded.ServeWireFull(out[:0], pkt, sc, true); resp == nil {
			fmt.Fprintln(os.Stderr, "serve bench: warmup query failed the full path")
			return 1
		}
	}
	for _, pkt := range mix {
		if _, hit := sharded.ServeWireFast(out[:0], pkt, sc); !hit {
			fmt.Fprintln(os.Stderr, "serve bench: mix query missed the warm cache")
			return 1
		}
	}

	// In-process handler benchmark: seed path vs warm fast path.
	seedPath := testing.Benchmark(func(tb *testing.B) {
		for i := 0; i < tb.N; i++ {
			pkt := mix[i%len(mix)]
			var q dnswire.Message
			if err := q.Unpack(pkt); err != nil {
				tb.Fatal(err)
			}
			resp := auth.ServeDNS(&q)
			if _, err := resp.Pack(); err != nil {
				tb.Fatal(err)
			}
		}
	})
	fast := testing.Benchmark(func(tb *testing.B) {
		sc := dnsserver.NewWireScratch()
		buf := make([]byte, 0, 4096)
		tb.ResetTimer()
		for i := 0; i < tb.N; i++ {
			var hit bool
			buf, hit = sharded.ServeWireFast(buf[:0], mix[i%len(mix)], sc)
			if !hit {
				tb.Fatal("cache miss on warm mix")
			}
		}
	})
	b.SeedNsPerOp = float64(seedPath.T.Nanoseconds()) / float64(seedPath.N)
	b.SeedAllocs = seedPath.AllocsPerOp()
	b.FastNsPerOp = float64(fast.T.Nanoseconds()) / float64(fast.N)
	b.FastAllocs = fast.AllocsPerOp()
	if b.FastNsPerOp > 0 {
		b.HandlerSpeedup = b.SeedNsPerOp / b.FastNsPerOp
	}
	fmt.Fprintf(os.Stderr, "serve bench: handler seed %.0f ns/op (%d allocs), fast %.0f ns/op (%d allocs), speedup %.1fx\n",
		b.SeedNsPerOp, b.SeedAllocs, b.FastNsPerOp, b.FastAllocs, b.HandlerSpeedup)

	// Loopback: the real server under internal/loadgen's client.
	runLoop := func(mode loadgen.Mode, rate int) (loadgen.Result, *dnsserver.Server, error) {
		srv := &dnsserver.Server{Handler: sharded}
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			return loadgen.Result{}, nil, err
		}
		lcfg := loadgen.Config{
			Addr:     srv.Addr(),
			Queries:  mix,
			Conns:    8,
			Duration: cfg.Duration,
			Mode:     mode,
			Rate:     rate,
			Seed:     cfg.Seed,
		}
		res, err := loadgen.Run(context.Background(), lcfg)
		return res, srv, err
	}

	serverLoop, srv, err := runLoop(loadgen.Closed, 0)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv.Close()
	b.ServerLoop = serverLoop
	fmt.Fprintf(os.Stderr, "serve bench: loopback closed-loop %.0f qps\n", serverLoop.QPS)

	// Open loop at the configured offered rate for honest percentiles.
	openLoop, srv, err := runLoop(loadgen.Open, cfg.Rate)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	b.OpenLoop = openLoop
	b.Server = srv.Stats()
	b.Cache = sharded.CacheStats()
	srv.Close()
	fmt.Fprintf(os.Stderr, "serve bench: open-loop %.0f qps offered, %.0f achieved, p50=%s p99=%s p999=%s\n",
		openLoop.OfferedQPS, openLoop.QPS, openLoop.P50, openLoop.P99, openLoop.P999)

	if err := writeBaseline(cfg.OutPath, &b); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	ok := true
	if b.HandlerSpeedup < cfg.MinSpeedup {
		fmt.Fprintf(os.Stderr, "serve bench: FAIL handler speedup %.1fx < %.1fx\n", b.HandlerSpeedup, cfg.MinSpeedup)
		ok = false
	}
	if b.FastAllocs > cfg.MaxAllocs {
		fmt.Fprintf(os.Stderr, "serve bench: FAIL fast path %d allocs/op > %d\n", b.FastAllocs, cfg.MaxAllocs)
		ok = false
	}
	if !ok {
		return 1
	}
	return 0
}
