// Command regsec-dig is a minimal dig-like DNS query tool built on the
// registrarsec stack: it sends a query over UDP (with TCP fallback on
// truncation) and prints the response in presentation form.
//
// Usage:
//
//	regsec-dig [-dnssec] [-timeout 3s] [-retries 1] @server:port NAME [TYPE]
//
// Example against a local regsec-server:
//
//	regsec-server -origin example.com -addr 127.0.0.1:5300 -sign &
//	regsec-dig -dnssec @127.0.0.1:5300 www.example.com A
package main

import (
	"context"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"strings"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/retry"
)

func main() {
	dnssecOK := flag.Bool("dnssec", false, "set the DO bit and request RRSIGs")
	timeout := flag.Duration("timeout", 3*time.Second, "query timeout")
	retries := flag.Int("retries", 1, "per-query attempt budget (lame and truncated answers retried when >1)")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: %s [flags] @server:port NAME [TYPE]\n", os.Args[0])
		flag.PrintDefaults()
	}
	flag.Parse()
	args := flag.Args()
	if len(args) < 2 || !strings.HasPrefix(args[0], "@") {
		flag.Usage()
		os.Exit(2)
	}
	server := strings.TrimPrefix(args[0], "@")
	name := args[1]
	qtype := dnswire.TypeA
	if len(args) >= 3 {
		t, ok := dnswire.TypeFromString(strings.ToUpper(args[2]))
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown type %q\n", args[2])
			os.Exit(2)
		}
		qtype = t
	}

	q := dnswire.NewQuery(uint16(rand.Intn(1<<16)), name, qtype)
	if *dnssecOK {
		q.SetEDNS(4096, true)
	}
	st, err := exchange.Build(exchange.Options{
		Transport: &dnsserver.NetExchanger{Timeout: *timeout},
		Retry:     &retry.Policy{MaxAttempts: *retries},
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "building exchange stack: %v\n", err)
		os.Exit(1)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Duration(*retries+1)**timeout)
	defer cancel()
	start := time.Now()
	resp, err := st.Exchange(ctx, server, q)
	if err != nil {
		fmt.Fprintf(os.Stderr, "query failed: %v\n", err)
		os.Exit(1)
	}
	fmt.Print(resp.String())
	fmt.Printf(";; query time: %v, server: %s", time.Since(start).Round(time.Microsecond), server)
	if c := st.Counters(); c.Retry.Retries > 0 {
		fmt.Printf(" (%d retries)", c.Retry.Retries)
	}
	fmt.Println()
}
