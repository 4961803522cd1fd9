package registrarsec_test

import (
	"context"
	"fmt"
	"log"

	"securepki.org/registrarsec"
)

// ExampleOperatorsToCover shows the Figure 3 coverage computation over a
// hand-built CDF.
func ExampleOperatorsToCover() {
	cdf := []registrarsec.CDFPoint{
		{Rank: 1, Operator: "ovh.net", Count: 320, CumFrac: 0.40},
		{Rank: 2, Operator: "hyp.net", Count: 94, CumFrac: 0.52},
		{Rank: 3, Operator: "transip.net", Count: 91, CumFrac: 0.63},
	}
	fmt.Println(registrarsec.OperatorsToCover(cdf, 0.5))
	// Output: 2
}

// ExampleRenderTable1 renders a dataset overview.
func ExampleRenderTable1() {
	rows := []registrarsec.TLDOverview{
		{TLD: "com", Domains: 118147, PctDNSKEY: 0.70, PctFull: 0.49, PctPartial: 0.21},
		{TLD: "nl", Domains: 5674, PctDNSKEY: 51.60, PctFull: 49.90, PctPartial: 1.70},
	}
	fmt.Print(registrarsec.RenderTable1(rows))
	// Output:
	// TLD         Domains     %DNSKEY       %Full    %Partial
	// --------------------------------------------------------
	// .com         118147       0.70%       0.49%       0.21%
	// .nl            5674      51.60%      49.90%       1.70%
}

// ExampleNewStudy builds the full environment and probes one registrar.
func ExampleNewStudy() {
	study, err := registrarsec.NewStudy(registrarsec.Options{SkipWorld: true})
	if err != nil {
		fmt.Println(err)
		return
	}
	obs, err := study.Prober().Run(context.Background(), study.Agents["godaddy"])
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Println(obs.Registrar, "needs a fee for hosted DNSSEC:", obs.HostedNeededFee)
	// Output: GoDaddy needs a fee for hosted DNSSEC: true
}

// Example_library is README's library snippet.
func Example_library() {
	study, err := registrarsec.NewStudy(registrarsec.Options{Scale: 1.0 / 1000})
	if err != nil {
		log.Fatal(err)
	}
	// Probe the top-20 registrars, and read Figure 4 off the model.
	fmt.Println(study.RenderTable2(study.ProbeTable2()))
	ovh, godaddy := registrarsec.Figure4(study.World.Index(), 30)
	fmt.Println(ovh[len(ovh)-1].PctFull(), godaddy[len(godaddy)-1].PctFull())
	// Measure a day of real signed DNS, and read Table 1 off the archive.
	measured, err := study.Measure(context.Background(), registrarsec.LongitudinalConfig{
		Days: []registrarsec.Day{registrarsec.WindowEnd}, Sample: 1000, Archive: "scans.tsv",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(registrarsec.RenderTable1(registrarsec.Table1(measured)))
}
