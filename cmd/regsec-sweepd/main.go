// Command regsec-sweepd is the distributed-sweep coordinator daemon. It
// owns one sweep plan — days × shards over a deterministic world sample —
// and serves the lease/heartbeat/complete control plane over HTTP to
// regsec-scan processes running in -worker mode. Workers scan each shard
// in chunks of -chunk targets, durably flush every chunk as a
// checksum-trailered file in the shared -checkpoint-dir, and report each
// finished unit as a manifest of its chunk files; the daemon leases work
// units with deadlines, re-leases units whose worker died or stalled,
// verifies manifests and settles duplicate completions by checksum, and —
// once every unit is complete — streams the CRC-verified chunks through a
// bounded spill writer into the merged archive, which is byte-identical to
// a single-process `regsec-scan` of the same configuration.
//
// Usage:
//
//	regsec-sweepd -checkpoint-dir state/ -o archive.tsv
//	              [-listen 127.0.0.1:7353] [-lease-ttl 30s] [-resume]
//	              [-days 2016-06-01,2016-12-31] [-sample 1000] [-shards 4]
//	              [-scale 2000] [-seed 1] [-workers 16] [-retries 3] [-resweeps 2]
//	              [-cache] [-dedup] [-fault-frac 0] [-fault-loss 0.2] [-fault-seed 1]
//	              [-chunk 4096]
//
// Then, on any machine sharing the checkpoint directory:
//
//	regsec-scan -worker http://coordinator:7353 -checkpoint-dir state/ [-name w1]
//
// The daemon's own death is recoverable: lease and completion state is
// persisted atomically (coordinator.json) after every change, so restarting
// it with -resume adopts all completed units and re-leases the rest;
// without -resume a directory holding that state is refused, and a
// single-process regsec-scan checkpoint directory is refused either way.
// SIGINT/SIGTERM stop the daemon cleanly with state intact.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/httpx"
	"securepki.org/registrarsec/internal/simtime"
)

func main() {
	os.Exit(run())
}

func run() int {
	cpDir := flag.String("checkpoint-dir", "", "shared checkpoint directory workers flush chunks into (required)")
	outPath := flag.String("o", "", "write the merged checksummed TSV archive here once the plan completes (required)")
	listen := flag.String("listen", "127.0.0.1:7353", "control-plane listen address")
	leaseTTL := flag.Duration("lease-ttl", 30*time.Second, "lease deadline budget: a worker must complete or heartbeat within it")
	resume := flag.Bool("resume", false, "adopt persisted coordinator state from a previous run in -checkpoint-dir")
	planOf := dsweep.RegisterPlanFlags(flag.CommandLine)
	flag.Parse()

	if *cpDir == "" || *outPath == "" {
		fmt.Fprintln(os.Stderr, "regsec-sweepd requires -checkpoint-dir and -o")
		return 2
	}
	plan, err := planOf()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	store, err := checkpoint.Open(*cpDir)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	if _, err := store.Adopt(checkpoint.CoordLedger, *resume); err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	coord, err := dsweep.NewCoordinator(dsweep.CoordinatorConfig{Plan: plan, Store: store, LeaseTTL: *leaseTTL})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		if owner, pid, ok := store.LockedBy(); ok {
			fmt.Fprintf(os.Stderr, "(directory is held by %s, pid %d)\n", owner, pid)
		}
		return 1
	}
	defer coord.Close()

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	srv := httpx.NewServer(dsweep.NewHandler(coord))
	// An interrupt ends the lease requests held waiting, so that Shutdown
	// does not wait them out.
	srv.BaseContext = func(net.Listener) context.Context { return ctx }
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, err)
		}
	}()
	fmt.Fprintf(os.Stderr, "coordinating %d units (%d day(s) × %d shard(s)) on http://%s — workers: regsec-scan -worker http://%s -checkpoint-dir %s\n",
		plan.Units(), len(plan.Days), plan.Shards, ln.Addr(), ln.Addr(), *cpDir)

	start := time.Now()
	select {
	case <-ctx.Done():
		srv.Shutdown(context.Background())
		s := coord.Stats()
		fmt.Fprintf(os.Stderr, "interrupted with %d/%d units done; state saved in %s — restart with -resume to continue\n",
			s.Done, s.Units, *cpDir)
		return 130
	case <-coord.Done():
	}
	srv.Shutdown(context.Background())

	aw, err := dataset.NewArchiveWriter(*outPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer aw.Abort()
	err = coord.Merge(dataset.SpillOptions{}, func(_ simtime.Day, sw *dataset.SpillWriter) error {
		return aw.Section(sw)
	})
	if err == nil {
		err = aw.Close()
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	stats := coord.Stats()
	byDay, byWorker := coord.Health()
	for _, day := range plan.Days {
		if h := byDay[day]; h != nil {
			fmt.Fprintln(os.Stderr, h)
		}
	}
	names := make([]string, 0, len(byWorker))
	for name := range byWorker {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		h := byWorker[name]
		fmt.Fprintf(os.Stderr, "worker %s: %d/%d measured, %d failed\n", name, h.Measured, h.Targets, len(h.Failures))
	}
	fmt.Fprintf(os.Stderr, "sweep complete in %v: %d units (%d recovered, %d re-leased, %d duplicate, %d divergent, %d rejected); archive %s\n",
		time.Since(start).Round(time.Millisecond), stats.Units, stats.Recovered, stats.Releases, stats.Duplicates, stats.Divergent, stats.Rejected, *outPath)

	// The archive is durable; the chunks and lease state have served
	// their purpose.
	if err := store.Clear(); err != nil {
		fmt.Fprintf(os.Stderr, "clearing checkpoint: %v\n", err)
	}
	return 0
}
