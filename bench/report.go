package main

import (
	"encoding/json"
	"fmt"
	"math"
	"time"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// figureOperators are the nine operators whose deployment series the
// paper's Figures 4-8 draw.
var figureOperators = []string{
	"ovh.net", "domaincontrol.com", // Figure 4
	"loopia.se", "is.nl", // Figure 5
	"webhostingserver.nl", "binero.se", // Figure 6
	"pcextreme.nl", "transip.net", // Figure 7
	"cloudflare.com", // Figure 8
}

var figure3Classes = []colstore.Class{colstore.ClassAny, colstore.ClassPartial, colstore.ClassFull}

// reportResult is what regenerating the tables and figures measured.
type reportResult struct {
	WallS    float64
	Queries  int
	Table1   []analysis.TLDOverview // at the study's last day
	Snapshot int                    // rows of that day's snapshot
}

// reportStage regenerates the paper's artifacts from the world index, as
// regsec-report does: per month-end a cold snapshot, Table 1, the three
// Figure 3 operator CDFs and the registrar tallies; then the nine Figure 4-8
// series at a one-day step.
func reportStage(idx *colstore.Index, p profile, tr *tracer, root int32) (*reportResult, error) {
	res := &reportResult{}
	timed := func(name string, group int64, fn func()) {
		id := tr.begin(name, root, group)
		fn()
		tr.end(id)
		res.Queries++
	}
	start := time.Now()
	for _, day := range monthEnds(p.ReportMonths) {
		g := int64(day)
		timed("colstore.snapshot", g, func() { res.Snapshot = len(idx.Snapshot(day).Records) })
		timed("colstore.overview", g, func() { res.Table1 = idx.Overview(day, tldsim.AllTLDs) })
		for _, c := range figure3Classes {
			timed("colstore.operator_cdf", g, func() { idx.OperatorCDF(day, c, tldsim.GTLDs...) })
		}
		timed("colstore.registrars", g, func() {
			idx.DomainsByRegistrar()
			idx.DNSKEYByRegistrar(day)
		})
	}
	for i, op := range figureOperators {
		timed("colstore.series", int64(i), func() { idx.Series(op, "", simtime.GTLDStart, simtime.End, 1) })
	}
	res.WallS = time.Since(start).Seconds()
	return res, reportOracle(idx, p, res)
}

// reportOracle holds the regenerated Table 1 to the two things that can be
// known about it. The columnar Overview must equal the record-at-a-time
// analysis.Overview of the same day's snapshot. And the share of domains
// with a DNSKEY per TLD must sit within the EXPERIMENTS.md tolerances of the
// paper's Table 1 (±0.2 points for the gTLDs, ±3 for .nl/.se, at the 1:250
// reference scale; widened by √(divisor/250) for the binomial noise of a
// smaller world). A scenario world moves the gTLD rows on purpose, so there
// only the ccTLD rows are held to the paper.
func reportOracle(idx *colstore.Index, p profile, res *reportResult) error {
	want := analysis.Overview(idx.Snapshot(simtime.End), tldsim.AllTLDs)
	a, _ := json.Marshal(res.Table1)
	b, _ := json.Marshal(want)
	if string(a) != string(b) {
		return fmt.Errorf("report oracle: columnar Table 1 %s != snapshot Table 1 %s", a, b)
	}
	widen := math.Max(1, math.Sqrt(p.Divisor/250))
	for _, row := range res.Table1 {
		target := tldsim.TLDKeyPct[row.TLD]
		tol := 0.2
		if target > 10 {
			tol = 3
		} else if p.Scenario != tldsim.Baseline {
			continue
		}
		if math.Abs(row.PctDNSKEY-target) > tol*widen {
			return fmt.Errorf("report oracle: .%s has %.2f%% DNSKEY, paper %.1f%% ± %.2f", row.TLD, row.PctDNSKEY, target, tol*widen)
		}
	}
	return nil
}
