// Command regsec-epp runs a live TLD registry: an EPP provisioning endpoint
// (RFC 5730/5734 with the RFC 5910 secDNS extension) in front of a signed
// TLD zone served over DNS. Domain creates and DS updates sent over EPP
// appear in the DNS zone immediately — the full registrar→registry→DNS path
// of the paper, on your loopback.
//
// Usage:
//
//	regsec-epp -tld com -epp 127.0.0.1:7000 -dns 127.0.0.1:5301 -accredit acme:s3cret [-axfr]
//
// -accredit names each registrar once, with a non-empty password. The
// registry serves each EPP connection as a session (registry.ServeEPP), the
// one registrar agents provision through in process. Provision with any EPP
// client speaking the subset (internal/epp's client; examples/epp-session
// runs one), and watch with:
//
//	regsec-dig -dnssec @127.0.0.1:5301 example.com DS
package main

import (
	"flag"
	"fmt"
	"os"
	"os/signal"
	"slices"
	"strings"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/epp"
	"securepki.org/registrarsec/internal/registry"
)

func main() {
	tld := flag.String("tld", "com", "TLD to operate")
	eppAddr := flag.String("epp", "127.0.0.1:7000", "EPP listen address")
	dnsAddr := flag.String("dns", "127.0.0.1:5301", "DNS listen address (UDP+TCP)")
	accredit := flag.String("accredit", "acme:s3cret", "comma-separated registrarID:password pairs")
	axfr := flag.Bool("axfr", false, "allow zone transfers of the TLD zone")
	flag.Parse()
	// Caught from the start, so an interrupt once the startup lines are out
	// shuts the registry down cleanly.
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)

	reg, err := registry.New(registry.Config{
		TLD:       *tld,
		NSHost:    ecosystem.TLDServerAddr(*tld),
		AcceptsDS: true,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	var ids []string
	for _, pair := range strings.Split(*accredit, ",") {
		id, pw, _ := strings.Cut(strings.TrimSpace(pair), ":")
		if id == "" || pw == "" || slices.Contains(ids, id) {
			fmt.Fprintf(os.Stderr, "bad -accredit entry %q (want id:password, a non-empty password and each id once)\n", pair)
			os.Exit(2)
		}
		reg.Accredit(id, pw)
		ids = append(ids, id)
	}
	slices.Sort(ids)

	eppSrv := &epp.Server{Session: reg.ServeEPP}
	if err := eppSrv.ListenAndServe(*eppAddr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer eppSrv.Close()

	auth := reg.Server()
	if *axfr {
		auth.EnableAXFR(func(string) bool { return true })
	}
	dnsSrv := &dnsserver.Server{Handler: auth}
	if err := dnsSrv.ListenAndServe(*dnsAddr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer dnsSrv.Close()

	dss, err := reg.DSRecords()
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf(".%s registry up:\n", reg.TLD())
	fmt.Printf("  EPP:  %s   (registrars: %s)\n", eppSrv.Addr(), strings.Join(ids, ", "))
	fmt.Printf("  DNS:  %s   (udp+tcp%s)\n", dnsSrv.Addr(), map[bool]string{true: ", axfr open", false: ""}[*axfr])
	fmt.Printf("  trust anchor DS for .%s: %s\n", reg.TLD(), dss[0])
	<-sig
}
