package tldsim

import (
	"testing"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/simtime"
)

// scenarioKeyPct builds a scenario world and returns the end-of-window
// gTLD %DNSKEY and %full.
func scenarioKeyPct(t *testing.T, s Scenario) (keyPct, fullPct float64) {
	t.Helper()
	w, err := BuildScenario(s, WorldConfig{Scale: 1.0 / 2000, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Index().Snapshot(simtime.End)
	total, keyed, full := 0, 0, 0
	for i := range snap.Records {
		r := &snap.Records[i]
		if !inGTLD(r) {
			continue
		}
		total++
		if r.HasDNSKEY {
			keyed++
		}
		if analysis.FullyDeployed(r) {
			full++
		}
	}
	return 100 * float64(keyed) / float64(total), 100 * float64(full) / float64(total)
}

func TestScenarioProjections(t *testing.T) {
	baseKey, baseFull := scenarioKeyPct(t, Baseline)
	within(t, "baseline gTLD %DNSKEY", baseKey, 0.73, 0.25)

	// Recommendation 1: DNSSEC by default at the top-20 moves gTLD
	// adoption from under 1% to nearly half the market (the top-20's
	// combined hosting share × 95% completion) within a renewal cycle.
	defKey, defFull := scenarioKeyPct(t, DefaultDNSSEC)
	if defKey < 40 {
		t.Errorf("registrars-default: %%DNSKEY = %.1f, expected ~46", defKey)
	}
	if defKey < 40*baseKey {
		t.Errorf("registrars-default: %%DNSKEY = %.1f only %.0fx baseline", defKey, defKey/baseKey)
	}
	if defFull < 38 {
		t.Errorf("registrars-default: %%full = %.1f", defFull)
	}

	// Recommendations 2-3: universal CDS does not create new signers, but
	// erases the partial class — full catches up to DNSKEY.
	cdsKey, cdsFull := scenarioKeyPct(t, UniversalCDS)
	within(t, "universal-cds %DNSKEY", cdsKey, baseKey, 0.3)
	if gap := cdsKey - cdsFull; gap > 0.12 {
		t.Errorf("universal-cds left a DS gap of %.2f points", gap)
	}
	if cdsFull <= baseFull {
		t.Errorf("universal-cds full %.2f did not improve on baseline %.2f", cdsFull, baseFull)
	}

	// Recommendation 4: gTLD incentives push the market toward ccTLD-like
	// adoption.
	incKey, incFull := scenarioKeyPct(t, GTLDIncentives)
	if incKey < 20 {
		t.Errorf("gtld-incentives: %%DNSKEY = %.1f, expected tens of percent", incKey)
	}
	if incFull < 0.9*incKey-5 {
		t.Errorf("gtld-incentives: full %.1f lags DNSKEY %.1f despite audited uploads", incFull, incKey)
	}
	if Baseline.String() != "baseline" || DefaultDNSSEC.String() != "registrars-default" ||
		UniversalCDS.String() != "universal-cds" || GTLDIncentives.String() != "gtld-incentives" {
		t.Error("scenario names")
	}
}
