// Command regsec-api is the always-on observatory daemon: an HTTP/JSON
// query plane over the registrar-DNSSEC world that keeps itself current
// by tailing a growing scan archive. It resumes from its committed world
// file on start, ingests new checksummed archive sections incrementally
// (no rebuild), and serves:
//
//	GET /healthz            liveness (the process serves HTTP)
//	GET /readyz             readiness (world loaded AND archive poll fresh)
//	GET /v1/status          ingest cursor, counts, gate stats, tailer restarts
//	GET /v1/table1          Table 1 per-TLD overview    [?day=][&tlds=com,net]
//	GET /v1/series          deployment series           ?operator=[&tld=][&from=][&to=][&step=]
//	GET /v1/operators       per-operator counts         [?day=][&class=][&limit=]
//	GET /v1/registrars      per-registrar counts        [?day=][&tlds=]
//	GET /v1/dsgap           DNSKEY-without-DS share     [?day=][&tlds=]
//
// Usage:
//
//	regsec-api -archive scans.tsv -world world.colstore
//	           [-listen 127.0.0.1:7363] [-poll 500ms] [-drain-timeout 15s]
//
// The world file is one gzip member: zcat world.colstore yields the
// regsecW1 colstore world it wraps.
//
// The daemon is crash-safe by construction: every ingest commit lands the
// world file, its ingest cursor inside, atomically at a section boundary,
// so a kill at any instruction resumes byte-identical to a clean run.
// SIGINT/SIGTERM drain in-flight requests gracefully with a hard deadline.
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
	"syscall"
	"time"

	"securepki.org/registrarsec/internal/apiserv"
	"securepki.org/registrarsec/internal/httpx"
)

func main() {
	os.Exit(run())
}

func run() int {
	archive := flag.String("archive", "", "checksummed scan archive to tail (required)")
	world := flag.String("world", "", "committed world file, created on first ingest (required)")
	listen := flag.String("listen", "127.0.0.1:7363", "query-plane listen address")
	poll := flag.Duration("poll", 500*time.Millisecond, "archive poll cadence")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "hard deadline for graceful shutdown")
	flag.Parse()

	if *archive == "" || *world == "" {
		fmt.Fprintln(os.Stderr, "regsec-api requires -archive and -world")
		return 2
	}

	s := apiserv.New(apiserv.Config{
		ArchivePath:  *archive,
		WorldPath:    *world,
		PollInterval: *poll,
	})

	ln, err := net.Listen("tcp", *listen)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	srv := httpx.NewServer(s.Handler())
	serveErr := make(chan error, 1)
	go func() {
		if err := srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			serveErr <- err
		}
	}()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	bgDone := make(chan struct{})
	go func() {
		defer close(bgDone)
		s.Run(ctx)
	}()
	fmt.Fprintf(os.Stderr, "regsec-api serving http://%s (archive %s, world %s)\n", ln.Addr(), *archive, *world)

	select {
	case err := <-serveErr:
		fmt.Fprintln(os.Stderr, err)
		stop()
		<-bgDone
		return 1
	case <-ctx.Done():
	}

	// Drain: stop admitting connections, let in-flight requests finish,
	// give up at the hard deadline. Ingest has already committed at its
	// last section boundary, so a hard exit loses nothing.
	fmt.Fprintf(os.Stderr, "regsec-api draining (up to %v)\n", *drainTimeout)
	shutCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(shutCtx); err != nil {
		fmt.Fprintf(os.Stderr, "regsec-api drain deadline hit: %v\n", err)
	}
	<-bgDone
	admitted, shed := s.GateStats()
	fmt.Fprintf(os.Stderr, "regsec-api stopped: %d request(s) served, %d shed\n", admitted, shed)
	return 0
}
