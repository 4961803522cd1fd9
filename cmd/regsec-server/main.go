// Command regsec-server serves a zone file authoritatively over UDP and
// TCP, optionally DNSSEC-signing it on load. When signing, it prints the DS
// record to hand to the parent zone — the record this whole study is about.
//
// Usage:
//
//	regsec-server -origin example.com -zone example.zone -addr 127.0.0.1:5300
//	              [-sign [-alg ed25519] [-nsec]] [-cache 0] [-drain 5s]
//
// With no -zone argument a small demonstration zone is generated. On
// SIGINT/SIGTERM the server drains: in-flight queries get their answers,
// new ones are refused, and after the -drain deadline any stragglers are
// cut off.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/netip"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/zone"
)

func main() {
	origin := flag.String("origin", "example.com", "zone origin")
	zonePath := flag.String("zone", "", "zone file (master format); generated demo zone when empty")
	addr := flag.String("addr", "127.0.0.1:5300", "listen address (UDP and TCP)")
	sign := flag.Bool("sign", false, "DNSSEC-sign the zone on load")
	nsec := flag.Bool("nsec", false, "add an NSEC chain when signing")
	algName := flag.String("alg", "ed25519", "signing algorithm: rsa, ecdsa, ed25519")
	drain := flag.Duration("drain", 5*time.Second, "grace period for in-flight queries on shutdown")
	cacheEntries := flag.Int("cache", 0, "wire response cache entries (0 = default, negative disables)")
	flag.Parse()

	z, err := loadZone(*zonePath, *origin)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	if *sign {
		alg, err := parseAlg(*algName)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		signer, err := zone.NewSigner(alg, time.Now())
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		signer.AddNSEC = *nsec
		if err := signer.Sign(z); err != nil {
			fmt.Fprintf(os.Stderr, "signing: %v\n", err)
			os.Exit(1)
		}
		dss, err := signer.DSRecords(z.Origin, dnswire.DigestSHA256)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("zone signed with %v; give this DS record to your registrar:\n", alg)
		for _, ds := range dss {
			fmt.Printf("  %s. IN DS %s\n", z.Origin, ds)
		}
	}

	auth := dnsserver.NewSharded(dnsserver.ShardedConfig{CacheEntries: *cacheEntries})
	auth.AddZone(z)
	srv := &dnsserver.Server{Handler: auth}
	if err := srv.ListenAndServe(*addr); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("serving %s (%d records) on %s (udp+tcp)\n", present(z.Origin), z.Len(), srv.Addr())

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	<-ctx.Done()

	fmt.Fprintf(os.Stderr, "shutting down: draining in-flight queries (up to %v)...\n", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "drain deadline hit; %v\n", err)
		os.Exit(1)
	}
	st := srv.Stats()
	fmt.Fprintf(os.Stderr, "served %d queries (%d wire-cache hits, %d slow path, %d dropped, %d malformed)\n",
		st.Queries, st.CacheHits, st.SlowPath, st.Dropped, st.Malformed)
	cs := auth.CacheStats()
	fmt.Fprintf(os.Stderr, "wire cache: %d entries, %d fills, %d flushed, %d rejected\n",
		cs.Entries, cs.Fills, cs.Flushed, cs.Rejected)
	fmt.Fprintln(os.Stderr, "all in-flight queries answered; bye")
}

func loadZone(path, origin string) (*zone.Zone, error) {
	if path != "" {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return zone.Parse(f, origin)
	}
	origin = dnswire.CanonicalName(origin)
	z := zone.New(origin)
	z.MustAdd(dnswire.NewRR(origin, 3600, &dnswire.SOA{
		MName: "ns1." + origin, RName: "hostmaster." + origin,
		Serial: uint32(time.Now().Unix()), Refresh: 7200, Retry: 3600, Expire: 1209600, Minimum: 300,
	}))
	z.MustAdd(dnswire.NewRR(origin, 3600, &dnswire.NS{Host: "ns1." + origin}))
	z.MustAdd(dnswire.NewRR("ns1."+origin, 300, &dnswire.A{Addr: netip.MustParseAddr("127.0.0.1")}))
	z.MustAdd(dnswire.NewRR(origin, 300, &dnswire.A{Addr: netip.MustParseAddr("203.0.113.10")}))
	z.MustAdd(dnswire.NewRR("www."+origin, 300, &dnswire.A{Addr: netip.MustParseAddr("203.0.113.10")}))
	z.MustAdd(dnswire.NewRR(origin, 300, &dnswire.TXT{Strings: []string{"served by regsec-server"}}))
	return z, nil
}

func parseAlg(name string) (dnswire.Algorithm, error) {
	switch strings.ToLower(name) {
	case "rsa", "rsasha256":
		return dnswire.AlgRSASHA256, nil
	case "ecdsa", "p256":
		return dnswire.AlgECDSAP256SHA256, nil
	case "ed25519":
		return dnswire.AlgED25519, nil
	}
	return 0, fmt.Errorf("unknown algorithm %q (rsa, ecdsa, ed25519)", name)
}

func present(origin string) string {
	if origin == "" {
		return "."
	}
	return origin + "."
}
