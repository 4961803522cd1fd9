// Benchmark harness regenerating every table and figure of the paper's
// evaluation. Each benchmark measures the cost of producing its artifact
// and prints the reproduced rows/series once, so `go test -bench .` doubles
// as the experiment runner. EXPERIMENTS.md records paper-vs-measured for
// each one.
package registrarsec

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"

	"time"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnstest"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/epp"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// sharedStudy lazily builds one world for all measurement benches.
var (
	studyOnce   sync.Once
	sharedStudy *Study
	studyErr    error
)

func getStudy(b *testing.B) *Study {
	b.Helper()
	studyOnce.Do(func() {
		sharedStudy, studyErr = NewStudy(Options{Scale: 1.0 / 250, Seed: 1})
	})
	if studyErr != nil {
		b.Fatal(studyErr)
	}
	return sharedStudy
}

// printOnce guards artifact printing across bench iterations.
var printed sync.Map

func emit(name, text string) {
	if _, loaded := printed.LoadOrStore(name, true); !loaded {
		fmt.Printf("\n===== %s =====\n%s\n", name, text)
	}
}

// ---------------------------------------------------------------- Table 1

func BenchmarkTable1DatasetOverview(b *testing.B) {
	s := getStudy(b)
	b.ResetTimer()
	var rows []TLDOverview
	for i := 0; i < b.N; i++ {
		rows = Table1(s.World.Index())
	}
	b.StopTimer()
	text := RenderTable1(rows)
	text += "\npaper: .com 0.7% / .net 1.0% / .org 1.1% / .nl 51.6% / .se 46.7% with DNSKEY\n"
	emit("Table 1: dataset overview (2016-12-31)", text)
}

// ---------------------------------------------------------------- Table 2

func BenchmarkTable2PopularRegistrars(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		// A fresh study per iteration: probing mutates registrar state.
		s, err := NewStudy(Options{SkipWorld: true})
		if err != nil {
			b.Fatal(err)
		}
		obs := s.ProbeTable2()
		sum := Summarize(obs)
		text = getStudy(b).RenderTable2(obs)
		text += fmt.Sprintf("\nmeasured: hosted support %d/20 (default %d, paid %d), owner support %d/20, email channels %d, DS validators %d\n",
			sum.HostedSupport, sum.HostedDefault, sum.HostedPaid, sum.OwnerSupport, sum.EmailChannel, sum.ValidateDS)
		text += "paper:    hosted support 3/20 (default 1, paid 1), owner support 11/20, email channels 3, DS validators 2\n"
	}
	emit("Table 2: top-20 registrar probe", text)
}

// ---------------------------------------------------------------- Table 3

func BenchmarkTable3DNSSECRegistrars(b *testing.B) {
	var text string
	for i := 0; i < b.N; i++ {
		s, err := NewStudy(Options{SkipWorld: true})
		if err != nil {
			b.Fatal(err)
		}
		obs := s.ProbeTable3()
		sum := Summarize(obs)
		text = getStudy(b).RenderTable3(obs)
		text += fmt.Sprintf("\nmeasured: hosted by default %d/10, owner support %d/10, DS validators %d\n",
			sum.HostedDefault, sum.OwnerSupport, sum.ValidateDS)
		text += "paper:    hosted by default 9/10, owner support 8/10, DS validators 2 (OVH, PCExtreme)\n"
	}
	emit("Table 3: DNSSEC-heavy registrar probe", text)
}

// ---------------------------------------------------------------- Table 4

func BenchmarkTable4RegistrarResellerMatrix(b *testing.B) {
	s := getStudy(b)
	var rows []SurveyRow
	for i := 0; i < b.N; i++ {
		rows = s.SurveyTable4()
	}
	emit("Table 4: registrar/reseller roles per TLD", RenderTable4(rows))
}

// --------------------------------------------------------------- Figure 3

func BenchmarkFigure3OperatorCDF(b *testing.B) {
	s := getStudy(b)
	b.ResetTimer()
	var all, partial, full []CDFPoint
	for i := 0; i < b.N; i++ {
		all, partial, full = Figure3(s.World.Index())
	}
	b.StopTimer()
	text := fmt.Sprintf("operators: %d (all) / %d (partial) / %d (full)\n", len(all), len(partial), len(full))
	text += fmt.Sprintf("to cover 50%%: all=%d  partial=%d  full=%d   (paper: 26 / 4 / 2)\n",
		OperatorsToCover(all, 0.5), OperatorsToCover(partial, 0.5), OperatorsToCover(full, 0.5))
	text += fmt.Sprintf("top-25 overlap all vs full: %d (paper: 3)\n", analysis.TopOverlap(all, full, 25))
	text += "top fully deployed operators:\n"
	for i := 0; i < 5 && i < len(full); i++ {
		text += fmt.Sprintf("  %d. %-22s %7d domains  (cum %.1f%%)\n", i+1, full[i].Operator, full[i].Count, 100*full[i].CumFrac)
	}
	emit("Figure 3: CDF of domains by DNS operator (gTLDs)", text)
}

// --------------------------------------------------------------- Figure 4

func seriesText(label string, pts []SeriesPoint, every int) string {
	out := ""
	for i, p := range pts {
		if i%every != 0 && i != len(pts)-1 {
			continue
		}
		out += fmt.Sprintf("  %s  %s  total=%-7d DNSKEY=%6.2f%%  full=%6.2f%%\n",
			label, p.Day, p.Total, p.PctDNSKEY(), p.PctFull())
	}
	return out
}

func BenchmarkFigure4OVHvsGoDaddy(b *testing.B) {
	s := getStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	var ovh, gd []SeriesPoint
	for i := 0; i < b.N; i++ {
		ovh, gd = Figure4(s.World.Index(), 30)
	}
	b.StopTimer()
	text := seriesText("OVH    ", ovh, 4) + seriesText("GoDaddy", gd, 4)
	text += fmt.Sprintf("\nmeasured end: OVH %.1f%% full, GoDaddy %.2f%% full  (paper: 25.9%% / 0.02%%)\n",
		ovh[len(ovh)-1].PctFull(), gd[len(gd)-1].PctFull())
	emit("Figure 4: OVH (free opt-in) vs GoDaddy (paid)", text)
}

// --------------------------------------------------------------- Figure 5

func BenchmarkFigure5LoopiaKPN(b *testing.B) {
	s := getStudy(b)
	b.ResetTimer()
	var loopiaSE, loopiaCOM, kpnNL, kpnCOM []SeriesPoint
	for i := 0; i < b.N; i++ {
		loopiaSE = s.World.Index().Series("loopia.se", "se", simtime.SEStart, simtime.End, 30)
		loopiaCOM = s.World.Index().Series("loopia.se", "com", simtime.GTLDStart, simtime.End, 60)
		kpnNL = s.World.Index().Series("is.nl", "nl", simtime.NLStart, simtime.End, 30)
		kpnCOM = s.World.Index().Series("is.nl", "com", simtime.GTLDStart, simtime.End, 60)
	}
	b.StopTimer()
	last := func(p []SeriesPoint) SeriesPoint { return p[len(p)-1] }
	text := fmt.Sprintf("Loopia: .se full %.1f%%, .com full %.1f%% (DNSKEY %.1f%%)   (paper: ~95%% / 0%% signed-but-partial)\n",
		last(loopiaSE).PctFull(), last(loopiaCOM).PctFull(), last(loopiaCOM).PctDNSKEY())
	text += fmt.Sprintf("KPN:    .nl full %.1f%%, .com full %.1f%% (DNSKEY %.1f%%)   (paper: ~97%% / 0%% signed-but-partial)\n",
		last(kpnNL).PctFull(), last(kpnCOM).PctFull(), last(kpnCOM).PctDNSKEY())
	emit("Figure 5: Loopia and KPN sign everywhere, upload DS only where incentivized", text)
}

// --------------------------------------------------------------- Figure 6

func BenchmarkFigure6AntagonistBinero(b *testing.B) {
	s := getStudy(b)
	b.ResetTimer()
	var antCOM, antNL, binSE, binCOM []SeriesPoint
	for i := 0; i < b.N; i++ {
		antCOM = s.World.Index().Series("webhostingserver.nl", "com", simtime.GTLDStart, simtime.End, 30)
		antNL = s.World.Index().Series("webhostingserver.nl", "nl", simtime.NLStart, simtime.End, 60)
		binSE = s.World.Index().Series("binero.se", "se", simtime.SEStart, simtime.End, 60)
		binCOM = s.World.Index().Series("binero.se", "com", simtime.GTLDStart, simtime.End, 60)
	}
	b.StopTimer()
	last := func(p []SeriesPoint) SeriesPoint { return p[len(p)-1] }
	text := "Antagonist .com ramp (renewal-driven migration to OpenProvider):\n"
	text += seriesText("ant .com", antCOM, 3)
	text += fmt.Sprintf("\nmeasured end: Antagonist .com %.1f%% (.nl %.1f%%), Binero .se %.1f%% (.com %.1f%%)\n",
		last(antCOM).PctFull(), last(antNL).PctFull(), last(binSE).PctFull(), last(binCOM).PctFull())
	text += "paper:        Antagonist .com 52.7% (.nl 95.4%), Binero .se 92.9% (.com 37.8%)\n"
	emit("Figure 6: Antagonist and Binero", text)
}

// --------------------------------------------------------------- Figure 7

func BenchmarkFigure7TransIPPCExtreme(b *testing.B) {
	s := getStudy(b)
	b.ResetTimer()
	var pcx, tipCOM, tipSE []SeriesPoint
	for i := 0; i < b.N; i++ {
		pcx = s.World.Index().Series("pcextreme.nl", "com", simtime.GTLDStart-20, simtime.End, 5)
		tipCOM = s.World.Index().Series("transip.net", "com", simtime.GTLDStart, simtime.End, 60)
		tipSE = s.World.Index().Series("transip.net", "se", simtime.SEStart, simtime.End, 30)
	}
	b.StopTimer()
	last := func(p []SeriesPoint) SeriesPoint { return p[len(p)-1] }
	text := "PCExtreme step (2015-03, 0.44%→98.3% in ten days):\n"
	text += seriesText("pcx .com", pcx[:12], 1)
	text += fmt.Sprintf("\nmeasured end: PCExtreme %.1f%%, TransIP .com %.1f%%, TransIP .se %.1f%%\n",
		last(pcx).PctFull(), last(tipCOM).PctFull(), last(tipSE).PctFull())
	text += "paper:        PCExtreme 97.0%, TransIP registrar-TLDs 99.2%, TransIP .se 48.4%\n"
	emit("Figure 7: PCExtreme and TransIP", text)
}

// --------------------------------------------------------------- Figure 8

func BenchmarkFigure8Cloudflare(b *testing.B) {
	s := getStudy(b)
	b.ResetTimer()
	var cf []SeriesPoint
	for i := 0; i < b.N; i++ {
		cf = Figure8(s.World.Index(), 15)
	}
	b.StopTimer()
	text := ""
	for i, p := range cf {
		if i%3 != 0 && i != len(cf)-1 {
			continue
		}
		text += fmt.Sprintf("  %s  DNSKEY=%5.2f%%  DS|DNSKEY=%5.1f%%\n", p.Day, p.PctDNSKEY(), p.PctDSGivenDNSKEY())
	}
	lastP := cf[len(cf)-1]
	text += fmt.Sprintf("\nmeasured end: %.2f%% with DNSKEY; %.1f%% of those have DS  (paper: 1.9%% / 60.7%%)\n",
		lastP.PctDNSKEY(), lastP.PctDSGivenDNSKEY())
	emit("Figure 8: Cloudflare universal DNSSEC and the DS relay gap", text)
}

// ------------------------------------------------------- live-scan check

func BenchmarkMeasureVerification(b *testing.B) {
	s := getStudy(b)
	cfg := LongitudinalConfig{Days: []Day{simtime.End}, Sample: 200, Workers: 8, Archive: filepath.Join(b.TempDir(), "scans.tsv")}
	b.ResetTimer()
	var idx *Index
	for i := 0; i < b.N; i++ {
		var err error
		if idx, err = s.Measure(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	snap := idx.Snapshot(simtime.End)
	counts := map[dnssec.Deployment]int{}
	for i := range snap.Records {
		counts[snap.Records[i].Deployment()]++
	}
	emit("Live-scan verification (200 sampled domains, real signed zones)",
		fmt.Sprintf("none=%d partial=%d full=%d broken=%d\n",
			counts[dnssec.DeploymentNone], counts[dnssec.DeploymentPartial], counts[dnssec.DeploymentFull], counts[dnssec.DeploymentBroken]))
}

// -------------------------------------------------------------- ablations

// BenchmarkAblationGrouping compares operator-identification rules: the
// paper's second-level NS grouping vs full NS hostnames vs WHOIS parsing
// (section 4.2's methodology choice).
func BenchmarkAblationGrouping(b *testing.B) {
	s := getStudy(b)
	snap := s.World.Index().Snapshot(simtime.End)
	b.Run("second-level", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops := map[string]int{}
			for j := range snap.Records {
				ops[dataset.GroupOperatorAll(snap.Records[j].NSHosts)]++
			}
			if len(ops) == 0 {
				b.Fatal("no operators")
			}
		}
	})
	b.Run("full-ns-host", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ops := map[string]int{}
			for j := range snap.Records {
				if len(snap.Records[j].NSHosts) > 0 {
					ops[snap.Records[j].NSHosts[0]]++
				}
			}
			if len(ops) == 0 {
				b.Fatal("no operators")
			}
		}
	})
	b.Run("whois-parse", func(b *testing.B) {
		// WHOIS text per record, parsed best-effort; count parse failures.
		texts := make([]string, 0, 3000)
		for j := range snap.Records[:min(3000, len(snap.Records))] {
			r := &snap.Records[j]
			texts = append(texts, whoisSchemas[j%len(whoisSchemas)](whoisRecord{
				Domain: r.Domain, Registrar: r.Operator, NameServers: r.NSHosts,
			}))
		}
		b.ResetTimer()
		fails := 0
		for i := 0; i < b.N; i++ {
			fails = 0
			for _, text := range texts {
				if _, err := parseWhois(text); err != nil {
					fails++
				}
			}
		}
		b.StopTimer()
		b.ReportMetric(float64(fails)/float64(len(texts))*100, "parse-fail-%")
	})
}

// BenchmarkAblationCDS measures the Cloudflare DS gap with and without
// registry-side CDS polling — quantifying the paper's section 8
// recommendation that registries deploy RFC 7344.
func BenchmarkAblationCDS(b *testing.B) {
	run := func(b *testing.B, cdsPolling bool) float64 {
		b.Helper()
		var gap float64
		for i := 0; i < b.N; i++ {
			// Without polling, the relay completes with probability ~0.62
			// (the measured human behaviour); with polling the registry
			// fetches the DS itself, so every signed domain completes.
			relay := tldsim.DSSpec{Mode: tldsim.DSRelay, Prob: 0.622, LagMeanDays: 10}
			if cdsPolling {
				relay = tldsim.DSSpec{Mode: tldsim.DSWithKey}
			}
			world := simulateCDSWorld(b, relay)
			pts := world.Index().Series("cloudflare.com", "", simtime.End, simtime.End, 1)
			gap = pts[0].PctDSGivenDNSKEY()
		}
		return gap
	}
	var without, with float64
	b.Run("manual-relay", func(b *testing.B) { without = run(b, false) })
	b.Run("cds-polling", func(b *testing.B) { with = run(b, true) })
	emit("Ablation: RFC 7344 CDS polling vs manual DS relay",
		fmt.Sprintf("DS completion for Cloudflare-signed domains: manual=%.1f%%  with CDS=%.1f%%  (paper gap: 60.7%% vs ideal 100%%)\n", without, with))
}

// simulateCDSWorld builds a minimal one-cohort world with the given DS
// behaviour.
func simulateCDSWorld(b *testing.B, ds tldsim.DSSpec) *tldsim.World {
	b.Helper()
	w, err := tldsim.BuildCustom(tldsim.WorldConfig{Scale: 1, Seed: 7}, []tldsim.Cohort{{
		Registrar: "Cloudflare", Operator: "cloudflare.com", TLD: "com", Domains: 20000,
		Key: tldsim.Launch(0.019, simtime.CloudflareUniversalDNSSEC),
		DS:  ds,
	}})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// BenchmarkScanWorkers sweeps one materialized sample with different
// worker-pool widths — the scan-concurrency ablation.
func BenchmarkScanWorkers(b *testing.B) {
	s := getStudy(b)
	sample := s.World.Sample(300, 11)
	mat, err := tldsim.Materialize(simtime.End, sample)
	if err != nil {
		b.Fatal(err)
	}
	targets := make([]scan.Target, 0, len(sample))
	for _, d := range sample {
		targets = append(targets, scan.Target{Domain: d.Name, TLD: d.TLD})
	}
	for _, workers := range []int{1, 4, 16} {
		b.Run(fmt.Sprintf("workers-%d", workers), func(b *testing.B) {
			scanner, err := scan.New(scan.Config{
				Exchange: mat.Net, TLDServers: mat.TLDServers,
				Workers: workers, Clock: func() simtime.Day { return simtime.End },
			})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < b.N; i++ {
				snap, _, err := scanner.ScanDay(context.Background(), simtime.End, targets)
				if err != nil {
					b.Fatal(err)
				}
				if len(snap.Records) != len(targets) {
					b.Fatalf("scanned %d of %d", len(snap.Records), len(targets))
				}
			}
		})
	}
}

// BenchmarkTransports compares one DNSSEC query round trip over the
// in-memory network vs real UDP loopback — the transport ablation that
// justifies simulating scans in memory.
func BenchmarkTransports(b *testing.B) {
	h, err := dnstest.NewHierarchy(simtime.End.Time(), "com")
	if err != nil {
		b.Fatal(err)
	}
	if _, _, err := h.AddDomain("bench.com", "ns1.bench-op.net", dnstest.Full); err != nil {
		b.Fatal(err)
	}
	query := func(id uint16) *dnswire.Message {
		q := dnswire.NewQuery(id, "bench.com", dnswire.TypeDNSKEY)
		q.SetEDNS(4096, true)
		return q
	}
	b.Run("memnet", func(b *testing.B) {
		ctx := context.Background()
		for i := 0; i < b.N; i++ {
			resp, err := h.Net.Exchange(ctx, "ns1.bench-op.net", query(uint16(i)))
			if err != nil || len(resp.Answers) == 0 {
				b.Fatalf("exchange: %v", err)
			}
		}
	})
	b.Run("udp", func(b *testing.B) {
		srv := &dnsserver.Server{Handler: h.OperatorServer("ns1.bench-op.net")}
		if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
			b.Fatal(err)
		}
		defer srv.Close()
		ex := &dnsserver.NetExchanger{Timeout: 2 * time.Second}
		ctx := context.Background()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			resp, err := ex.Exchange(ctx, srv.Addr(), query(uint16(i)))
			if err != nil || len(resp.Answers) == 0 {
				b.Fatalf("exchange: %v", err)
			}
		}
	})
}

// ------------------------------------------------------ micro benchmarks

func BenchmarkWorldBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tldsim.Build(tldsim.WorldConfig{Scale: 1.0 / 5000, Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSnapshotAt(b *testing.B) {
	s := getStudy(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := s.World.Index().Snapshot(simtime.End)
		if len(snap.Records) == 0 {
			b.Fatal("empty snapshot")
		}
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// BenchmarkRecommendations projects the paper's section 8 recommendations
// as counterfactual worlds: what gTLD adoption would look like if the
// top-20 signed by default, if every registry polled CDS, or if the gTLDs
// paid .nl-style incentives.
func BenchmarkRecommendations(b *testing.B) {
	gtldStats := func(w *tldsim.World) (keyPct, fullPct float64) {
		snap := w.Index().Snapshot(simtime.End)
		total, keyed, full := 0, 0, 0
		for i := range snap.Records {
			r := &snap.Records[i]
			if r.TLD != "com" && r.TLD != "net" && r.TLD != "org" {
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
	text := ""
	for _, sc := range []tldsim.Scenario{
		tldsim.Baseline, tldsim.DefaultDNSSEC, tldsim.UniversalCDS, tldsim.GTLDIncentives,
	} {
		b.Run(sc.String(), func(b *testing.B) {
			var key, full float64
			for i := 0; i < b.N; i++ {
				w, err := tldsim.BuildScenario(sc, tldsim.WorldConfig{Scale: 1.0 / 1000, Seed: 1})
				if err != nil {
					b.Fatal(err)
				}
				key, full = gtldStats(w)
			}
			text += fmt.Sprintf("  %-20s gTLD %%DNSKEY=%6.2f  %%full=%6.2f\n", sc, key, full)
		})
	}
	emit("Section 8 recommendations as counterfactual projections (gTLDs, end of window)", text)
}

// BenchmarkEPPDSUpdate measures the registrar→registry DS-update operation
// over the real EPP protocol on loopback TCP — the provisioning path whose
// human detours the paper blames for the DS gap.
func BenchmarkEPPDSUpdate(b *testing.B) {
	eco, err := ecosystem.New(ecosystem.Config{TLDs: []string{"com"}})
	if err != nil {
		b.Fatal(err)
	}
	reg := eco.Registries["com"]
	reg.Accredit("bench", "pw")
	srv := &epp.Server{Session: reg.ServeEPP}
	if err := srv.ListenAndServe("127.0.0.1:0"); err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		b.Fatal(err)
	}
	c, err := epp.NewClient(conn)
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	if err := c.Login("bench", "pw"); err != nil {
		b.Fatal(err)
	}
	if err := c.CreateDomain("bench.com", []string{"ns1.op.net"}, nil); err != nil {
		b.Fatal(err)
	}
	ds := &dnswire.DS{KeyTag: 1, Algorithm: dnswire.AlgED25519, DigestType: dnswire.DigestSHA256, Digest: make([]byte, 32)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ds.KeyTag = uint16(i)
		if err := c.UpdateDS("bench.com", []*dnswire.DS{ds}); err != nil {
			b.Fatal(err)
		}
	}
}
