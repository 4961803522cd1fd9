// Command regsec-report regenerates the paper's measurement artifacts from
// the simulated world: the Table 1 dataset overview, the Figure 3 operator
// CDFs, and the Figure 4-8 time series (as CSV suitable for plotting).
//
// Usage:
//
//	regsec-report [-scale 1000] [-seed 1] -artifact table1|figure3|figure4|figure5|figure6|figure7|figure8|all
//	              [-step 7] [-world-cache dir] [-cpuprofile cpu.prof] [-memprofile mem.prof]
//	regsec-report -archive scans.tsv
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"

	"securepki.org/registrarsec"
	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/profdump"
	"securepki.org/registrarsec/internal/simtime"
)

func main() {
	os.Exit(run())
}

func run() int {
	scaleDiv := flag.Float64("scale", 1000, "population divisor")
	seed := flag.Int64("seed", 1, "world seed")
	artifact := flag.String("artifact", "all", "which artifact to produce")
	step := flag.Int("step", 7, "series step in days")
	archive := flag.String("archive", "", "analyze a regsec-scan TSV archive instead of the generative model")
	worldCache := flag.String("world-cache", "", "directory caching built worlds keyed by (seed, scale, config): build once, load many")
	cpuProfile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memProfile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	stopProfiles, err := profdump.Start(*cpuProfile, *memProfile)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	defer stopProfiles()

	if *archive != "" {
		if err := reportArchive(*archive); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		return 0
	}

	study, err := registrarsec.NewStudy(registrarsec.Options{
		Scale: 1 / *scaleDiv, Seed: *seed, SkipAgents: true,
		WorldCacheDir: *worldCache,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}

	idx := study.World.Index()
	runAll := *artifact == "all"
	did := false

	if runAll || *artifact == "table1" {
		did = true
		fmt.Println("Table 1 — dataset overview at 2016-12-31:")
		fmt.Println(registrarsec.RenderTable1(registrarsec.Table1(idx)))
	}
	if runAll || *artifact == "figure3" {
		did = true
		all, partial, full := registrarsec.Figure3(idx)
		fmt.Println("Figure 3 — cumulative distribution of gTLD domains by DNS operator:")
		fmt.Printf("  operators: all=%d partial=%d full=%d\n", len(all), len(partial), len(full))
		fmt.Printf("  to cover 50%%: all=%d partial=%d full=%d (paper: 26/4/2)\n",
			registrarsec.OperatorsToCover(all, 0.5),
			registrarsec.OperatorsToCover(partial, 0.5),
			registrarsec.OperatorsToCover(full, 0.5))
		fmt.Println("  rank,cum_all,cum_partial,cum_full")
		for _, rank := range []int{1, 2, 4, 10, 26, 100, 1000} {
			fmt.Printf("  %d,%.3f,%.3f,%.3f\n", rank,
				analysis.CoverageOfTop(all, rank), analysis.CoverageOfTop(partial, rank), analysis.CoverageOfTop(full, rank))
		}
		fmt.Println()
	}

	series := func(title, op, tld string, from registrarsec.Day) {
		pts := idx.Series(op, tld, from, simtime.End, *step)
		fmt.Printf("%s (%s/.%s)\nday,total,pct_dnskey,pct_full\n", title, op, orAll(tld))
		for _, p := range pts {
			fmt.Printf("%s,%d,%.3f,%.3f\n", p.Day, p.Total, p.PctDNSKEY(), p.PctFull())
		}
		fmt.Println()
	}
	if runAll || *artifact == "figure4" {
		did = true
		series("Figure 4 — OVH", "ovh.net", "", simtime.GTLDStart)
		series("Figure 4 — GoDaddy", "domaincontrol.com", "", simtime.GTLDStart)
	}
	if runAll || *artifact == "figure5" {
		did = true
		series("Figure 5 — Loopia .se", "loopia.se", "se", simtime.SEStart)
		series("Figure 5 — Loopia .com", "loopia.se", "com", simtime.GTLDStart)
		series("Figure 5 — KPN .nl", "is.nl", "nl", simtime.NLStart)
		series("Figure 5 — KPN .com", "is.nl", "com", simtime.GTLDStart)
	}
	if runAll || *artifact == "figure6" {
		did = true
		series("Figure 6 — Antagonist .com", "webhostingserver.nl", "com", simtime.GTLDStart)
		series("Figure 6 — Antagonist .nl", "webhostingserver.nl", "nl", simtime.NLStart)
		series("Figure 6 — Binero .se", "binero.se", "se", simtime.SEStart)
		series("Figure 6 — Binero .com", "binero.se", "com", simtime.GTLDStart)
	}
	if runAll || *artifact == "figure7" {
		did = true
		series("Figure 7 — PCExtreme .com", "pcextreme.nl", "com", simtime.GTLDStart-20)
		series("Figure 7 — TransIP .com", "transip.net", "com", simtime.GTLDStart)
		series("Figure 7 — TransIP .se", "transip.net", "se", simtime.SEStart)
	}
	if runAll || *artifact == "figure8" {
		did = true
		pts := registrarsec.Figure8(idx, *step)
		fmt.Println("Figure 8 — Cloudflare (cloudflare.com)\nday,total,pct_dnskey,pct_ds_given_dnskey")
		for _, p := range pts {
			fmt.Printf("%s,%d,%.3f,%.3f\n", p.Day, p.Total, p.PctDNSKEY(), p.PctDSGivenDNSKEY())
		}
		fmt.Println()
	}
	if !did {
		fmt.Fprintf(os.Stderr, "unknown artifact %q\n", *artifact)
		return 2
	}
	return 0
}

// reportArchive summarizes a scan archive: per-day overview plus the
// operator CDFs of the final day. The archive is read through the salvaging
// reader, which quarantines torn and corrupted sections and reports them
// instead of mis-parsing, and each section it verifies is folded into the
// colstore engine as regsec-api folds it, one section in memory at a time.
func reportArchive(path string) error {
	fold := &archiveFold{tlds: map[string]bool{}}
	idx, report, err := colstore.FoldArchive(path, fold.add)
	if err != nil {
		return err
	}
	if !report.Clean() {
		fmt.Fprintf(os.Stderr, "warning: %s\n", report)
		for _, c := range report.Quarantined {
			fmt.Fprintf(os.Stderr, "  quarantined %s (line %d): %s\n", c.Day, c.Line, c.Reason)
		}
	}
	if len(fold.days) == 0 {
		return fmt.Errorf("archive %s contains no snapshots", path)
	}
	tlds := slices.Sorted(maps.Keys(fold.tlds))
	for _, d := range fold.days {
		fmt.Printf("snapshot %s (%d records):\n", d.day, d.records)
		for _, tld := range tlds {
			row := d.rows[tld]
			fmt.Printf("  .%-4s %8d domains  %6.2f%% DNSKEY  %6.2f%% full  %6.2f%% partial\n",
				tld, row.Domains, row.PctDNSKEY, row.PctFull, row.PctPartial)
		}
	}
	final := fold.days[len(fold.days)-1].day
	all := idx.OperatorCDF(final, colstore.ClassAny)
	full := idx.OperatorCDF(final, colstore.ClassFull)
	fmt.Printf("final day: %d operators; 50%% coverage needs %d (all) / %d (full)\n",
		len(all), analysis.OperatorsToCover(all, 0.5), analysis.OperatorsToCover(full, 0.5))
	return nil
}

// archiveFold is what the report keeps of an archive beside the fold: each
// day's Table 1 rows, and every TLD a record names, Failed records
// included.
type archiveFold struct {
	days []dayRows
	tlds map[string]bool
}

type dayRows struct {
	day     simtime.Day
	records int
	rows    map[string]analysis.TLDOverview
}

// add keeps a folded section's rows: the Table 1 regsec-api would answer
// for the day once it had committed the section.
func (a *archiveFold) add(snap *dataset.Snapshot, idx *colstore.Index) error {
	for i := range snap.Records {
		a.tlds[snap.Records[i].TLD] = true
	}
	rows := map[string]analysis.TLDOverview{}
	for _, row := range idx.Overview(snap.Day, idx.TLDs()) {
		rows[row.TLD] = row
	}
	a.days = append(a.days, dayRows{snap.Day, len(snap.Records), rows})
	return nil
}

func orAll(tld string) string {
	if tld == "" {
		return "all"
	}
	return tld
}
