// Financial incentives: reproduce section 6.3's mechanism. A ccTLD registry
// pays registrars a yearly discount per correctly signed domain and audits
// compliance daily; a registrar with broken DNSSEC racks up failures until
// its discount is suspended (".nl registrars should not fail validations
// more than 14 times in six months").
//
// Run with: go run ./examples/incentives
package main

import (
	"context"
	"fmt"
	"log"

	"securepki.org/registrarsec/internal/channel"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/simtime"
)

func main() {
	eco, err := ecosystem.New(ecosystem.Config{
		TLDs: []string{"nl"},
		Incentives: map[string]*registry.Incentive{
			"nl": {DiscountPerYear: 0.28, MaxFailures: 14, WindowDays: 180},
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	mk := func(id string, sloppy bool) *registrar.Registrar {
		p := registrar.Policy{
			ID: id, Name: id, NSHosts: []string{"ns1." + id + ".nl"},
			HostedDNSSEC: registrar.SupportDefault,
			Roles:        map[string]registrar.Role{"nl": {Kind: registrar.RoleRegistrar}},
		}
		if sloppy {
			// Its support desk takes DS records over live chat and
			// installs them unchecked, hosted domains included.
			p.OwnerDNSSEC, p.DSChannel = true, channel.Chat
		}
		r, err := registrar.New(p, registrar.Deps{Registries: eco.Registries, Net: eco.Net, Clock: eco.Clock.Day})
		if err != nil {
			log.Fatal(err)
		}
		r.CreateAccount("c@x.nl")
		return r
	}
	compliant := mk("dutchhost", false)
	sloppy := mk("brokenhost", true)

	// Each registrar hosts ten signed domains.
	for i := 0; i < 10; i++ {
		if err := compliant.Purchase("c@x.nl", fmt.Sprintf("goed%02d.nl", i), ""); err != nil {
			log.Fatal(err)
		}
		if err := sloppy.Purchase("c@x.nl", fmt.Sprintf("kapot%02d.nl", i), ""); err != nil {
			log.Fatal(err)
		}
	}
	// The sloppy registrar corrupts its DS records (transcription errors,
	// no validation): every domain is broken for validating resolvers.
	for i := 0; i < 10; i++ {
		garbage := &dnswire.DS{KeyTag: uint16(i), Algorithm: dnswire.AlgED25519,
			DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
		if _, err := sloppy.ChatUploadDS(context.Background(), "c@x.nl", fmt.Sprintf("kapot%02d.nl", i), garbage); err != nil {
			log.Fatal(err)
		}
	}
	nl := eco.Registries["nl"]

	// The registry audits daily for 30 days.
	fmt.Println("daily registry audits (the .nl/.se compliance checks):")
	for day := 0; day < 30; day++ {
		d := eco.Clock.Advance(1)
		report, err := nl.HealthCheck(context.Background(), eco.Net, d)
		if err != nil {
			log.Fatal(err)
		}
		if day == 0 || day == 14 || day == 29 {
			fmt.Printf("  %s: checked=%d valid=%d failures=%v discounts=%v\n",
				d, report.Checked, report.Valid, report.FailuresByRegistrar,
				fmtDiscounts(report.DiscountsAccrued))
		}
	}
	totals := nl.Discounts()
	fmt.Printf("\naccrued discounts after 30 days:\n")
	fmt.Printf("  dutchhost:  €%.4f (10 valid domains × €0.28/365 × 30 days)\n", totals["dutchhost"])
	fmt.Printf("  brokenhost: €%.4f — suspended after exceeding 14 failures in the window\n", totals["brokenhost"])
	fmt.Println("\nthe paper: these small discounts made .nl and .se the most-signed TLDs in the study,")
	fmt.Println("and registrars like Loopia/KPN sign ONLY the TLDs where the discount exists (Figure 5).")
	_ = simtime.End
}

func fmtDiscounts(m map[string]float64) string {
	if len(m) == 0 {
		return "{}"
	}
	out := "{"
	for k, v := range m {
		out += fmt.Sprintf("%s:€%.4f ", k, v)
	}
	return out[:len(out)-1] + "}"
}
