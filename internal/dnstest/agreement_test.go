package dnstest_test

import (
	"context"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/diagnose"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/zone"
)

const agreementNS = "ns1.op.net"

// signWindow hangs domain below .com signed with the given validity window,
// DS in place.
func signWindow(t *testing.T, h *dnstest.Hierarchy, domain string, inception, expiration time.Time) {
	t.Helper()
	child, _, err := h.AddDomain(domain, agreementNS, dnstest.Unsigned)
	if err != nil {
		t.Fatal(err)
	}
	signer, err := zone.NewSigner(dnswire.AlgED25519, h.Now)
	if err != nil {
		t.Fatal(err)
	}
	signer.Inception, signer.Expiration = inception, expiration
	if err := signer.Sign(child); err != nil {
		t.Fatal(err)
	}
	dss, err := signer.DSRecords(domain, dnswire.DigestSHA256)
	if err != nil {
		t.Fatal(err)
	}
	publishDS(t, h, domain, dss[0])
}

// publishDS adds one DS for domain to the .com zone and re-signs it.
func publishDS(t *testing.T, h *dnstest.Hierarchy, domain string, ds *dnswire.DS) {
	t.Helper()
	tz := h.TLDZone("com")
	tz.MustAdd(dnswire.NewRR(domain, 86400, ds))
	if err := h.TLDSigner("com").Sign(tz); err != nil {
		t.Fatal(err)
	}
}

// TestChainLinkAgreement builds one domain per state of the DS ↔ DNSKEY ↔
// RRSIG(DNSKEY) link and asks everything that judges the link — dnssec.Link
// itself, a validating resolver, the sweep, the administrator's checker and
// the registry's incentive audit — whether the chain is valid. They must
// all give the answer the row names, and therefore the same one.
func TestChainLinkAgreement(t *testing.T) {
	day := simtime.Date(2016, 6, 1)
	now := day.Time()
	h, err := dnstest.NewHierarchy(now, "com")
	if err != nil {
		t.Fatal(err)
	}
	add := func(t *testing.T, domain string, mode dnstest.DomainMode) *zone.Zone {
		child, _, err := h.AddDomain(domain, agreementNS, mode)
		if err != nil {
			t.Fatal(err)
		}
		return child
	}
	rows := []struct {
		name  string
		build func(t *testing.T, domain string)
		valid bool
	}{
		{"healthy", func(t *testing.T, d string) { add(t, d, dnstest.Full) }, true},
		{"unsigned", func(t *testing.T, d string) { add(t, d, dnstest.Unsigned) }, false},
		{"partial", func(t *testing.T, d string) { add(t, d, dnstest.Partial) }, false},
		{"ds-matches-no-key", func(t *testing.T, d string) { add(t, d, dnstest.BogusDS) }, false},
		{"keys-unsigned", func(t *testing.T, d string) {
			add(t, d, dnstest.Full).RemoveSigs(d, dnswire.TypeDNSKEY)
		}, false},
		{"sig-expired", func(t *testing.T, d string) {
			signWindow(t, h, d, now.AddDate(0, -3, 0), now.AddDate(0, -1, 0))
		}, false},
		{"sig-not-yet-valid", func(t *testing.T, d string) {
			signWindow(t, h, d, now.AddDate(0, 1, 0), now.AddDate(0, 3, 0))
		}, false},
		{"ds-unsupported-digest", func(t *testing.T, d string) {
			// The right key tag and algorithm under a digest type (GOST
			// R 34.11-94) this module cannot compute.
			key := add(t, d, dnstest.Partial).Lookup(d, dnswire.TypeDNSKEY)[0].Data.(*dnswire.DNSKEY)
			publishDS(t, h, d, &dnswire.DS{
				KeyTag: key.KeyTag(), Algorithm: key.Algorithm, DigestType: 3, Digest: make([]byte, 32),
			})
		}, false},
		{"wrong-signer", func(t *testing.T, d string) { add(t, d, dnstest.WrongSigner) }, false},
	}

	audit, err := registry.New(registry.Config{
		TLD: "com", NSHost: "audit.com-registry.example", AcceptsDS: true,
		Incentive: &registry.Incentive{DiscountPerYear: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	scanner, err := scan.New(scan.Config{
		Exchange:   h.Net,
		TLDServers: map[string]string{"com": dnstest.TLDServerAddr("com")},
		Clock:      func() simtime.Day { return day },
	})
	if err != nil {
		t.Fatal(err)
	}
	checker := &diagnose.Checker{
		Exchange:     h.Net,
		ParentServer: dnstest.TLDServerAddr("com"),
		Now:          func() time.Time { return now },
	}
	ctx := context.Background()

	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			domain := row.name + ".com"
			row.build(t, domain)
			child := h.OperatorServer(agreementNS).Zone(domain)
			parentDS := dnssec.ExtractRRSet(h.TLDZone("com").Lookup(domain, dnswire.TypeDS), domain, dnswire.TypeDS).DS()
			keys := child.Lookup(domain, dnswire.TypeDNSKEY)
			child.Read(nil, func(r *zone.Reader) { keys = r.AppendSigs(keys, domain, dnswire.TypeDNSKEY) })
			keySet := dnssec.ExtractRRSet(keys, domain, dnswire.TypeDNSKEY)

			verdicts := map[string]bool{}
			verdicts["dnssec.Link"] = dnssec.Link(domain, parentDS, keySet, now).KeysValid

			_, chain, err := h.Validating().Lookup(ctx, domain, dnswire.TypeDNSKEY)
			if err != nil {
				t.Fatal(err)
			}
			verdicts["Validator"] = chain.Status == dnssec.Secure

			snap, health, err := scanner.ScanDay(ctx, day, []scan.Target{{Domain: domain, TLD: "com"}})
			if err != nil || len(health.ByClass) != 0 || len(snap.Records) != 1 {
				t.Fatalf("ScanDay: %v, %s", err, health)
			}
			verdicts["Scanner.ScanDay"] = snap.Records[0].ChainValid

			rep, err := checker.Check(ctx, domain)
			if err != nil {
				t.Fatal(err)
			}
			verdicts["Checker.Check"] = rep.Deployment == dnssec.DeploymentFull

			// The audit covers DS-bearing domains only; with one registrar
			// per row, a row is valid when its registrar has a valid domain.
			audit.Accredit(row.name, "pw")
			c, err := audit.Dial(row.name, "pw")
			if err != nil {
				t.Fatal(err)
			}
			err = c.CreateDomain(domain, []string{agreementNS}, parentDS)
			c.Close()
			if err != nil {
				t.Fatal(err)
			}
			report, err := audit.HealthCheck(ctx, h.Net, day)
			if err != nil {
				t.Fatal(err)
			}
			verdicts["Registry.HealthCheck"] = report.DiscountsAccrued[row.name] > 0

			for judge, valid := range verdicts {
				if valid != row.valid {
					t.Errorf("%s: chain valid = %v, want %v", judge, valid, row.valid)
				}
			}
		})
	}
}
