// Command regsec-check is a DNSViz-style DNSSEC health checker: it pulls a
// domain's delegation, DS, DNSKEY and RRSIG records and reports every
// misconfiguration in the chain — missing DS (partial deployment),
// mismatched DS, expired signatures, missing denial chains.
//
// Usage:
//
//	regsec-check -parent 127.0.0.1:5300 [-timeout 3s] example.com
//	regsec-check -demo
//
// The first form checks a domain against live servers (e.g. a local
// regsec-server plus its parent); the second is a self-contained
// demonstration over an in-memory hierarchy with one domain in every
// misconfiguration class.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"time"

	"securepki.org/registrarsec/internal/diagnose"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

func main() {
	parent := flag.String("parent", "", "address of the parent-zone (TLD) server")
	demo := flag.Bool("demo", false, "run against a built-in demonstration hierarchy")
	timeout := flag.Duration("timeout", 3*time.Second, "per-query timeout")
	flag.Parse()

	if *demo {
		runDemo()
		return
	}
	if *parent == "" || flag.NArg() != 1 {
		fmt.Fprintf(os.Stderr, "usage: %s -parent host:port DOMAIN  (or -demo)\n", os.Args[0])
		os.Exit(2)
	}
	c := &diagnose.Checker{
		Exchange:     &dnsserver.NetExchanger{Timeout: *timeout},
		ParentServer: *parent,
	}
	rep, err := c.Check(context.Background(), flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	printReport(rep)
	if len(rep.Errors()) > 0 {
		os.Exit(1)
	}
}

func printReport(rep *diagnose.Report) {
	fmt.Printf("%s — deployment: %s\n", rep.Domain, rep.Deployment)
	for _, f := range rep.Findings {
		fmt.Printf("  [%-7s] %-20s %s\n", f.Severity, f.Code, f.Message)
	}
}

// runDemo builds a hierarchy containing every misconfiguration class the
// paper's measurements surface, and checks each.
func runDemo() {
	now := time.Now()
	h, err := dnstest.NewHierarchy(now, "com")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	must := func(err error) {
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
	}
	add := func(name string, mode dnstest.DomainMode) {
		_, _, err := h.AddDomain(name, "ns1.op.net", mode)
		must(err)
	}
	add("unsigned.com", dnstest.Unsigned)
	add("partial.com", dnstest.Partial)
	add("bogus-ds.com", dnstest.BogusDS)
	add("wrong-signer.com", dnstest.WrongSigner)

	// A healthy NSEC3-signed domain.
	child, _, err := h.AddDomain("healthy.com", "ns1.op.net", dnstest.Unsigned)
	must(err)
	signer, err := zone.NewSigner(dnswire.AlgECDSAP256SHA256, now)
	must(err)
	signer.NSEC3 = &dnswire.NSEC3PARAM{HashAlg: dnswire.NSEC3HashSHA1, Iterations: 0}
	must(signer.Sign(child))
	tz := h.TLDZone("com")
	dss, err := signer.DSRecords("healthy.com", dnswire.DigestSHA256)
	must(err)
	for _, ds := range dss {
		must(tz.Add(dnswire.NewRR("healthy.com", 86400, ds)))
	}
	must(h.TLDSigner("com").Sign(tz))

	// An expired-signature domain.
	stale, _, err := h.AddDomain("expired.com", "ns1.op.net", dnstest.Unsigned)
	must(err)
	staleSigner, err := zone.NewSigner(dnswire.AlgED25519, now)
	must(err)
	staleSigner.Inception = now.AddDate(0, -3, 0)
	staleSigner.Expiration = now.AddDate(0, -1, 0)
	must(staleSigner.Sign(stale))
	dss, err = staleSigner.DSRecords("expired.com", dnswire.DigestSHA256)
	must(err)
	for _, ds := range dss {
		must(tz.Add(dnswire.NewRR("expired.com", 86400, ds)))
	}
	must(h.TLDSigner("com").Sign(tz))

	c := &diagnose.Checker{
		Exchange:     h.Net,
		ParentServer: dnstest.TLDServerAddr("com"),
		Now:          func() time.Time { return now },
	}
	for _, domain := range []string{
		"healthy.com", "unsigned.com", "partial.com", "bogus-ds.com", "expired.com", "wrong-signer.com",
	} {
		rep, err := c.Check(context.Background(), domain)
		must(err)
		printReport(rep)
		fmt.Println()
	}
}
