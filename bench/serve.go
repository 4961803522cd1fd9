package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/loadgen"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
	"securepki.org/registrarsec/internal/zone"
)

// serveConns is the closed loop's client count: one per core of this host.
const serveConns = 2

// serveRig is the serve stage's prepared state: one materialized day behind
// the caching handler the UDP server runs, the same zones behind a
// cache-disabled handler (the oracle), and the pre-packed query mix.
type serveRig struct {
	mat     *tldsim.Materialized
	domains []tldsim.DomainState
	zones   map[string]*zone.Zone
	cached  *dnsserver.Sharded
	plain   *dnsserver.Sharded
	// mix is what loadgen draws from uniformly. hot is its positive part
	// (distinct keys, all warmed); mix repeats hot so that it is half of
	// the traffic when negative names are present.
	mix, hot [][]byte
}

// buildServeRig materializes the sampled domains at the study's last day and
// warms the cache with one full-path pass over the positive mix.
func buildServeRig(p profile, world *tldsim.World, seed int64) (*serveRig, error) {
	rig := &serveRig{
		domains: world.Sample(p.ServeDomains, seed),
		zones:   make(map[string]*zone.Zone),
		cached:  dnsserver.NewSharded(dnsserver.ShardedConfig{CacheEntries: p.CacheEntries}),
		plain:   dnsserver.NewSharded(dnsserver.ShardedConfig{CacheEntries: -1}),
	}
	mat, err := tldsim.Materialize(simtime.End, rig.domains)
	if err != nil {
		return nil, err
	}
	rig.mat = mat
	for tld, ns := range mat.TLDServers {
		auth, ok := mat.Net.Lookup(ns).(*dnsserver.Authoritative)
		if !ok {
			return nil, fmt.Errorf("serve: no authoritative server for .%s", tld)
		}
		z := auth.Zone(tld)
		rig.zones[tld] = z
		rig.cached.AddZone(z)
		rig.plain.AddZone(z)
	}

	names := make([]string, 0, 2*len(rig.domains))
	for _, d := range rig.domains {
		names = append(names, d.Name, "www."+d.Name)
	}
	types := []dnswire.Type{dnswire.TypeNS, dnswire.TypeDS, dnswire.TypeSOA, dnswire.TypeA}
	if rig.hot, err = loadgen.QueryMix(names, types, p.DORatio, seed); err != nil {
		return nil, err
	}
	rig.mix = rig.hot
	if p.NegativeNames > 0 {
		neg := make([]string, p.NegativeNames)
		tlds := tldsim.AllTLDs
		for i := range neg {
			neg[i] = fmt.Sprintf("nx-%d-%d.%s", seed, i, tlds[i%len(tlds)])
		}
		negMix, err := loadgen.QueryMix(neg, []dnswire.Type{dnswire.TypeA}, 1.0, seed)
		if err != nil {
			return nil, err
		}
		rig.mix = append([][]byte(nil), negMix...)
		for len(rig.mix) < 2*len(negMix) {
			rig.mix = append(rig.mix, rig.hot[:min(len(rig.hot), 2*len(negMix)-len(rig.mix))]...)
		}
	}

	sc := dnsserver.NewWireScratch()
	out := make([]byte, 0, 4096)
	for _, pkt := range rig.hot {
		if rig.cached.ServeWireFull(out[:0], pkt, sc, true) == nil {
			return nil, fmt.Errorf("serve: warm-up query failed the full path")
		}
	}
	return rig, nil
}

// serveResult is what the serve stage measured.
type serveResult struct {
	Closed    loadgen.Result // the measured closed-loop window
	Mutations int
	Server    dnsserver.ServerStats
	Cache     dnsserver.CacheStats // deltas over the stage, Entries absolute
	Open      *loadgen.Result      // traced run only
	OpenRate  int
}

// mutator flips delegation NS RRsets on sampled domains at a fixed rate —
// the registry's syncDelegation idiom (Remove + MustAdd) followed by a
// serial bump — while the load runs.
type mutator struct {
	stop chan struct{}
	wg   sync.WaitGroup
	n    int
}

func startMutator(rig *serveRig, perSec int, seed int64) *mutator {
	m := &mutator{stop: make(chan struct{})}
	if perSec <= 0 {
		return m
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		rng := rand.New(rand.NewSource(seed))
		tick := time.NewTicker(time.Second / time.Duration(perSec))
		defer tick.Stop()
		flipped := make(map[string]bool)
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
			}
			d := &rig.domains[rng.Intn(len(rig.domains))]
			z := rig.zones[d.TLD]
			host := tldsim.NSHostOf(d.Operator)
			if flipped[d.Name] = !flipped[d.Name]; flipped[d.Name] {
				host = "ns2." + d.Operator
			}
			z.Remove(d.Name, dnswire.TypeNS)
			z.MustAdd(dnswire.NewRR(d.Name, 86400, &dnswire.NS{Host: host}))
			z.BumpSerial()
			m.n++
		}
	}()
	return m
}

// halt stops the stream and returns how many mutations were applied.
func (m *mutator) halt() int {
	close(m.stop)
	m.wg.Wait()
	return m.n
}

// latency applies the reporting rule to what loadgen exposes (p50, p90, p99,
// p99.9): the median and the highest of those percentiles that has ten
// samples beyond it.
func (r *serveResult) latency() latencySummary {
	c := r.Closed
	out := latencySummary{Samples: int(c.Received), MedianUs: us(c.P50)}
	have := map[string]time.Duration{"p90": c.P90, "p99": c.P99, "p99.9": c.P999}
	for _, t := range tailLadder {
		if v, ok := have[t.label]; ok && int(c.Received) >= 10*t.oneIn {
			out.TailLabel, out.TailUs = t.label, us(v)
		}
	}
	return out
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// serveStage runs the closed loop against a real UDP server on loopback: a
// warm-up window, then the measured one. A traced run adds one open-loop pass
// at half the measured rate.
func serveStage(ctx context.Context, p profile, rig *serveRig, seed int64, tr *tracer) (*serveResult, error) {
	srv := &dnsserver.Server{Handler: rig.cached}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		return nil, err
	}
	defer srv.Close()
	before := rig.cached.CacheStats()

	window := func(name string, mode loadgen.Mode, d time.Duration, rate int, k int) (loadgen.Result, error) {
		id := tr.begin(name, -1, int64(k))
		defer tr.end(id)
		return loadgen.Run(ctx, loadgen.Config{
			Addr: srv.Addr(), Queries: rig.mix, Conns: serveConns,
			Mode: mode, Rate: rate, Duration: d, Seed: seed + int64(k),
		})
	}
	res := &serveResult{}
	mut := startMutator(rig, p.MutationsPerSec, seed)
	_, err := window("loadgen.warm", loadgen.Closed, p.ServeWarm, 0, 0)
	if err == nil {
		res.Closed, err = window("loadgen.closed", loadgen.Closed, p.ServeWindow, 0, 1)
	}
	res.Mutations = mut.halt()
	if err != nil {
		return nil, err
	}
	res.Server = srv.Stats()

	if tr != nil {
		res.OpenRate = int(res.Closed.QPS / 2)
		open, err := window("loadgen.open", loadgen.Open, p.OpenWindow, res.OpenRate, 2)
		if err != nil {
			return nil, err
		}
		res.Open = &open
	}

	after := rig.cached.CacheStats()
	res.Cache = dnsserver.CacheStats{
		Hits: after.Hits - before.Hits, Misses: after.Misses - before.Misses,
		Fills: after.Fills - before.Fills, Rejected: after.Rejected - before.Rejected,
		Flushed: after.Flushed - before.Flushed, Entries: after.Entries,
	}
	return res, nil
}

// serveOracle replays 1,000 seeded queries of the mix through the caching
// handler exactly as a UDP worker would (fast path, then the full path on a
// miss) and requires each response to equal, byte for byte, what the
// cache-disabled handler renders from the same zones. It runs after the
// mutation stream has stopped. The responses are returned for the codec
// probes.
func serveOracle(rig *serveRig, seed int64) ([][]byte, error) {
	rng := rand.New(rand.NewSource(seed))
	scA, scB := dnsserver.NewWireScratch(), dnsserver.NewWireScratch()
	var captured [][]byte
	pkt := make([]byte, 0, 512)
	for i := 0; i < 1000; i++ {
		pkt = append(pkt[:0], rig.mix[rng.Intn(len(rig.mix))]...)
		binary.BigEndian.PutUint16(pkt, uint16(i+1))
		got, hit := rig.cached.ServeWireFast(nil, pkt, scA)
		if !hit {
			got = rig.cached.ServeWireFull(nil, pkt, scA, true)
		}
		want := rig.plain.ServeWireFull(nil, pkt, scB, true)
		if want == nil || !bytes.Equal(got, want) {
			return nil, fmt.Errorf("serve oracle: response %d differs from the cache-disabled handler (%d vs %d bytes)", i, len(got), len(want))
		}
		captured = append(captured, want)
	}
	return captured, nil
}
