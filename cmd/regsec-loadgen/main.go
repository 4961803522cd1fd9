// Command regsec-loadgen drives DNS query load against a regsec
// authoritative server over real UDP and reports throughput and latency
// percentiles.
//
// With no -addr it is self-contained: it builds (or loads from -world-cache)
// a simulated world, materializes a day of signed TLD zones, installs them
// into a cache-carrying Authoritative behind a real Server on loopback, and
// measures that. With -addr it drives an already-running server (for example
// regsec-server) and builds the same query mix from the same world seed, so
// both sides agree on what names exist.
//
// Closed-loop mode (-mode closed) reports the server's sustainable service
// rate; open-loop mode (-mode open -rate N) offers load at a fixed rate and
// reports honest latency percentiles under that load.
//
// Usage:
//
//	regsec-loadgen [-addr host:port | -workers 0] [-scale 20000] [-seed 1] [-sample 120]
//	               [-world-cache dir] [-types NS,DS,SOA,A] [-do 0.3] [-conns 8]
//	               [-mode closed|open [-rate 100000] [-ramp 0s]] [-duration 2s] [-o report.json]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/loadgen"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
	"securepki.org/registrarsec/internal/zone"
)

type report struct {
	Addr       string                 `json:"addr"`
	SelfServe  bool                   `json:"self_serve"`
	Domains    int                    `json:"domains"`
	Queries    int                    `json:"query_mix"`
	DORatio    float64                `json:"do_ratio"`
	Types      string                 `json:"types"`
	Result     loadgen.Result         `json:"result"`
	Server     *dnsserver.ServerStats `json:"server,omitempty"`
	Cache      *dnsserver.CacheStats  `json:"cache,omitempty"`
	BuildSecs  float64                `json:"build_secs,omitempty"`
	WorldScale float64                `json:"world_scale_divisor,omitempty"`
}

func main() {
	os.Exit(run())
}

func run() int {
	addr := flag.String("addr", "", "target server address (empty: self-serve a materialized world on loopback)")
	scaleDiv := flag.Float64("scale", 20000, "population divisor for the query-mix world")
	sample := flag.Int("sample", 120, "domains sampled from the world for the query mix")
	worldCache := flag.String("world-cache", "", "world cache directory (reused across runs)")
	seed := flag.Int64("seed", 1, "world and mix seed")
	conns := flag.Int("conns", 8, "client connections (virtual resolvers)")
	mode := flag.String("mode", "closed", "load model: closed (one outstanding per conn) or open (paced rate)")
	rate := flag.Int("rate", 100000, "offered QPS in open mode")
	ramp := flag.Duration("ramp", 0, "linear rate ramp before the measured window (open mode)")
	duration := flag.Duration("duration", 2*time.Second, "measured window")
	doRatio := flag.Float64("do", 0.3, "fraction of queries carrying the DNSSEC OK bit")
	types := flag.String("types", "NS,DS,SOA,A", "comma-separated query types")
	workers := flag.Int("workers", 0, "UDP worker loops for the self-served server (0 = GOMAXPROCS)")
	outPath := flag.String("o", "", "write the JSON report to this path instead of stdout")
	flag.Parse()

	var qtypes []dnswire.Type
	for _, s := range strings.Split(*types, ",") {
		t, ok := dnswire.TypeFromString(strings.TrimSpace(s))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown query type %q\n", s)
			return 2
		}
		qtypes = append(qtypes, t)
	}

	fmt.Fprintf(os.Stderr, "building world (scale 1/%.0f, seed %d)...\n", *scaleDiv, *seed)
	buildStart := time.Now()
	world, err := tldsim.BuildCached(*worldCache, tldsim.WorldConfig{Scale: 1 / *scaleDiv, Seed: *seed})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	domains := world.Sample(*sample, *seed)
	if len(domains) == 0 {
		fmt.Fprintln(os.Stderr, "world sample is empty; lower -scale")
		return 1
	}
	rep := report{
		SelfServe:  *addr == "",
		Domains:    len(domains),
		DORatio:    *doRatio,
		Types:      *types,
		WorldScale: *scaleDiv,
	}

	var srv *dnsserver.Server
	var auth *dnsserver.Authoritative
	target := *addr
	if target == "" {
		fmt.Fprintf(os.Stderr, "materializing %d domains at day %d...\n", len(domains), simtime.End)
		mat, err := tldsim.Materialize(simtime.End, domains)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		srv, auth, err = selfServe(mat, *workers)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		defer srv.Close()
		target = srv.Addr()
	}
	rep.Addr = target
	rep.BuildSecs = time.Since(buildStart).Seconds()

	// The mix queries the TLD zones: apex sets, delegations and the DS
	// proofs at each cut — the question mix a TLD server actually sees.
	names := make([]string, 0, 2*len(domains))
	for _, d := range domains {
		names = append(names, d.Name, "www."+d.Name)
	}
	mix, err := loadgen.QueryMix(names, qtypes, *doRatio, *seed)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep.Queries = len(mix)

	lcfg := loadgen.Config{
		Addr:     target,
		Queries:  mix,
		Conns:    *conns,
		Duration: *duration,
		Ramp:     *ramp,
		Seed:     *seed,
	}
	switch *mode {
	case "closed":
	case "open":
		lcfg.Mode = loadgen.Open
		lcfg.Rate = *rate
	default:
		fmt.Fprintf(os.Stderr, "unknown -mode %q (want closed or open)\n", *mode)
		return 2
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	fmt.Fprintf(os.Stderr, "running %s-loop load against %s for %s...\n", *mode, target, duration)
	res, err := loadgen.Run(ctx, lcfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	rep.Result = res
	if srv != nil {
		st := srv.Stats()
		rep.Server = &st
	}
	if auth != nil {
		cst := auth.CacheStats()
		rep.Cache = &cst
	}

	out, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	out = append(out, '\n')
	if *outPath != "" {
		if err := os.WriteFile(*outPath, out, 0o644); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	os.Stdout.Write(out)
	fmt.Fprintf(os.Stderr, "qps=%.0f p50=%s p99=%s p999=%s lost=%d\n",
		res.QPS, res.P50, res.P99, res.P999, res.Lost)
	return 0
}

// selfServe collects the materialized TLD zones into one cache-carrying
// host behind a real Server on an ephemeral loopback port.
func selfServe(mat *tldsim.Materialized, workers int) (*dnsserver.Server, *dnsserver.Authoritative, error) {
	auth := dnsserver.NewSharded(dnsserver.ShardedConfig{})
	for tld, ns := range mat.TLDServers {
		z := tldZone(mat, tld, ns)
		if z == nil {
			return nil, nil, fmt.Errorf("no zone for TLD %q", tld)
		}
		auth.AddZone(z)
	}
	srv := &dnsserver.Server{Handler: auth, UDPWorkers: workers}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		return nil, nil, err
	}
	return srv, auth, nil
}

// tldZone digs the signed TLD zone out of the materialized in-memory net:
// Materialize registers one Authoritative per TLD registry nameserver.
func tldZone(mat *tldsim.Materialized, tld, ns string) *zone.Zone {
	auth, ok := mat.Net.Lookup(ns).(*dnsserver.Authoritative)
	if !ok {
		return nil
	}
	return auth.Zone(tld)
}
