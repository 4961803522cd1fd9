package tldsim

import (
	"context"
	"testing"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// TestLongitudinalScanMatchesModelSeries runs the paper's actual pipeline
// end to end over several measurement days: a fixed domain sample is
// materialized as real DNS at each day, swept by the scan engine, archived
// in a dataset store, and analyzed into a time series — which must agree
// exactly with the state model's projection for the same sample.
func TestLongitudinalScanMatchesModelSeries(t *testing.T) {
	// A focused world: Cloudflare's launch dynamics give the series an
	// interesting shape across the chosen days.
	w, err := BuildCustom(WorldConfig{Scale: 1, Seed: 21}, []Cohort{
		{
			Registrar: "Cloudflare", Operator: "cloudflare.com", TLD: "com",
			Domains: 60,
			Key:     Launch(0.5, simtime.CloudflareUniversalDNSSEC),
			DS:      DSSpec{Mode: DSRelay, Prob: 0.6, LagMeanDays: 10},
		},
		{
			Registrar: "TransIP", Operator: "transip.net", TLD: "com",
			Domains: 40, Key: Linear(0.5, 0.9), DS: DSSpec{Mode: DSWithKey},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	domains := Domains(w)
	days := []simtime.Day{
		simtime.GTLDStart + 30,
		simtime.CloudflareUniversalDNSSEC + 30,
		simtime.Date(2016, 6, 1),
		simtime.End,
	}
	store := dataset.NewStore()
	for _, day := range days {
		mat, err := Materialize(day, domains)
		if err != nil {
			t.Fatalf("materialize %v: %v", day, err)
		}
		scanner, err := scan.New(scan.Config{
			Exchange: mat.Net, TLDServers: mat.TLDServers, Workers: 8,
			Clock: func() simtime.Day { return day },
		})
		if err != nil {
			t.Fatal(err)
		}
		var targets []scan.Target
		for _, d := range domains {
			targets = append(targets, scan.Target{Domain: d.Name, TLD: d.TLD})
		}
		snap, _, err := scanner.ScanDay(context.Background(), day, targets)
		if err != nil {
			t.Fatal(err)
		}
		store.Add(snap)
	}

	for _, operator := range []string{"cloudflare.com", "transip.net"} {
		scanned := analysis.Series(store, analysis.ByOperator(operator))
		if len(scanned) != len(days) {
			t.Fatalf("%s: %d scanned points", operator, len(scanned))
		}
		for i, day := range days {
			model := w.Index().Series(operator, "", day, day, 1)[0]
			got := scanned[i]
			if got.Total != model.Total || got.WithDNSKEY != model.WithDNSKEY ||
				got.WithDS != model.WithDS || got.Full != model.Full {
				t.Errorf("%s at %v: scanned {n=%d key=%d ds=%d full=%d}, model {n=%d key=%d ds=%d full=%d}",
					operator, day, got.Total, got.WithDNSKEY, got.WithDS, got.Full,
					model.Total, model.WithDNSKEY, model.WithDS, model.Full)
			}
		}
	}
	// And the shape is the launch curve: zero before, growing after.
	cf := analysis.Series(store, analysis.ByOperator("cloudflare.com"))
	if cf[0].WithDNSKEY != 0 {
		t.Error("Cloudflare had DNSKEYs before launch")
	}
	if cf[3].WithDNSKEY <= cf[1].WithDNSKEY {
		t.Error("Cloudflare series did not grow after launch")
	}
}
