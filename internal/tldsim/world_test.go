package tldsim

import (
	"bytes"
	"context"
	"math"
	"testing"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// testWorldConfig is the reduced-scale world the statistical and
// equivalence tests share.
var testWorldConfig = WorldConfig{Scale: 1.0 / 250, Seed: 99}

var (
	testWorldCache   *World
	testDomainsCache []DomainState
)

// testWorld builds the shared world once per test binary.
func testWorld(t *testing.T) *World {
	t.Helper()
	if testWorldCache == nil {
		w, err := Build(testWorldConfig)
		if err != nil {
			t.Fatal(err)
		}
		testWorldCache = w
	}
	return testWorldCache
}

// testDomains is the reference population of testWorld's config, sampled
// record by record (oracle_test.go): what the equivalence tests hold the
// built world and its index equal to.
func testDomains(t *testing.T) []DomainState {
	t.Helper()
	if testDomainsCache == nil {
		testDomainsCache = referenceDomains(t, testWorldConfig)
	}
	return testDomainsCache
}

func within(t *testing.T, name string, got, want, tol float64) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s = %.3f, want %.3f ± %.3f", name, got, want, tol)
	}
}

// inGTLD restricts analyses to .com/.net/.org, as Figure 3 does.
func inGTLD(r *dataset.Record) bool {
	return r.TLD == "com" || r.TLD == "net" || r.TLD == "org"
}

func TestTable1PopulationAndKeyPercentages(t *testing.T) {
	w := testWorld(t)
	snap := w.Index().Snapshot(simtime.End)
	rows := analysis.Overview(snap, AllTLDs)
	wantDomains := map[string]int{"com": 472589, "net": 55096, "org": 38731, "nl": 22697, "se": 5553}
	for _, row := range rows {
		want := wantDomains[row.TLD]
		if math.Abs(float64(row.Domains-want)) > float64(want)/100+20 {
			t.Errorf(".%s population %d, want ~%d", row.TLD, row.Domains, want)
		}
		tol := 0.2 // ±0.2pp for the small gTLD percentages
		if TLDKeyPct[row.TLD] > 10 {
			tol = 3 // ±3pp for .nl/.se
		}
		within(t, "."+row.TLD+" %DNSKEY", row.PctDNSKEY, TLDKeyPct[row.TLD], tol)
	}
}

func TestFigure3OperatorConcentration(t *testing.T) {
	w := testWorld(t)
	snap := w.Index().Snapshot(simtime.End)

	all := analysis.OperatorCDF(snap, inGTLD)
	partial := analysis.OperatorCDF(snap, analysis.And(inGTLD, analysis.PartiallyDeployed))
	full := analysis.OperatorCDF(snap, analysis.And(inGTLD, analysis.FullyDeployed))

	// The paper: tens of operators to cover half of all domains, but only
	// ~4 for partial and ~2 for fully deployed — the concentration finding.
	nAll := colstore.OperatorsToCover(all, 0.5)
	if nAll < 10 || nAll > 45 {
		t.Errorf("operators to cover 50%% of all domains = %d, want tens", nAll)
	}
	nPartial := colstore.OperatorsToCover(partial, 0.5)
	if nPartial < 2 || nPartial > 7 {
		t.Errorf("operators to cover 50%% of partial = %d, want ~4", nPartial)
	}
	nFull := colstore.OperatorsToCover(full, 0.5)
	if nFull < 1 || nFull > 4 {
		t.Errorf("operators to cover 50%% of full = %d, want ~2", nFull)
	}
	if nAll <= nPartial || nPartial < nFull {
		t.Errorf("concentration ordering violated: all=%d partial=%d full=%d", nAll, nPartial, nFull)
	}
	// ~10^4 operators on the x-axis.
	if len(all) < 5000 {
		t.Errorf("operator population %d, want thousands", len(all))
	}
	// The top fully-deployed operators are OVH and DomainNameShop, and the
	// overlap between the top-25 overall and top-25 full is small.
	if full[0].Operator != "ovh.net" {
		t.Errorf("top full operator = %s, want ovh.net", full[0].Operator)
	}
	// The paper found an overlap of only 3 between the top-25 overall and
	// the top-25 fully deployed. Our synthetic tail is thinner than the
	// real mid-market, which lets a few 2-3-domain named operators sneak
	// into the full top-25; the qualitative claim is a SMALL overlap.
	overlap := analysis.TopOverlap(all, full, 25)
	if overlap > 8 {
		t.Errorf("top-25 overlap = %d, paper found ~3", overlap)
	}
}

func TestFigure4OVHvsGoDaddy(t *testing.T) {
	w := testWorld(t)
	ovh := w.Index().Series("ovh.net", "", simtime.GTLDStart, simtime.End, 30)
	gd := w.Index().Series("domaincontrol.com", "", simtime.GTLDStart, simtime.End, 30)
	ovhStart, ovhEnd := ovh[0].PctFull(), ovh[len(ovh)-1].PctFull()
	within(t, "OVH full%% at start", ovhStart, 18.3, 2.5)
	within(t, "OVH full%% at end", ovhEnd, 25.9, 2.5)
	if ovhEnd <= ovhStart {
		t.Error("OVH adoption did not grow")
	}
	gdEnd := gd[len(gd)-1].PctFull()
	within(t, "GoDaddy full%% at end", gdEnd, 0.02, 0.02)
	// Monotone growth for OVH (sampled monthly).
	for i := 1; i < len(ovh); i++ {
		if ovh[i].Full < ovh[i-1].Full {
			t.Errorf("OVH series decreased at %v", ovh[i].Day)
		}
	}
}

func TestFigure5LoopiaKPNPartialByTLD(t *testing.T) {
	w := testWorld(t)
	// Loopia: .se essentially fully deployed, gTLDs signed but DS-less.
	se := w.Index().Series("loopia.se", "se", simtime.SEStart, simtime.End, 30)
	within(t, "Loopia .se full%%", se[len(se)-1].PctFull(), 93, 4)
	com := w.Index().Series("loopia.se", "com", simtime.GTLDStart, simtime.End, 60)
	last := com[len(com)-1]
	if last.PctFull() > 1 {
		t.Errorf("Loopia .com full%% = %.2f, want ~0", last.PctFull())
	}
	if last.PctDNSKEY() < 90 {
		t.Errorf("Loopia .com DNSKEY%% = %.2f, want >90 (signed but partial)", last.PctDNSKEY())
	}
	// KPN mirrors it for .nl.
	nl := w.Index().Series("is.nl", "nl", simtime.NLStart, simtime.End, 30)
	within(t, "KPN .nl full%%", nl[len(nl)-1].PctFull(), 96, 4)
	kcom := w.Index().Series("is.nl", "com", simtime.GTLDStart, simtime.End, 60)
	if kcom[len(kcom)-1].PctFull() > 1 {
		t.Errorf("KPN .com full%% = %.2f, want ~0", kcom[len(kcom)-1].PctFull())
	}
}

func TestFigure6AntagonistBinero(t *testing.T) {
	w := testWorld(t)
	// Antagonist: gradual renewal-driven ramp in the gTLDs to ~52.7%.
	ant := w.Index().Series("webhostingserver.nl", "com", simtime.GTLDStart, simtime.End, 30)
	first, last := ant[0], ant[len(ant)-1]
	within(t, "Antagonist .com full%% at end", last.PctFull(), 52.7, 10)
	if first.PctFull() > 45 {
		t.Errorf("Antagonist ramp missing: already %.1f%% at window start", first.PctFull())
	}
	// The ramp completes within a year of the switch: flat afterwards.
	mid := ant[len(ant)/2]
	if mid.PctFull() < 40 {
		t.Errorf("Antagonist ramp too slow: %.1f%% at mid-window", mid.PctFull())
	}
	// .nl stays high throughout.
	nl := w.Index().Series("webhostingserver.nl", "nl", simtime.NLStart, simtime.End, 60)
	within(t, "Antagonist .nl full%%", nl[len(nl)-1].PctFull(), 95.4, 4)

	// Binero: .se high, gTLDs ~37.8%, both roughly flat.
	se := w.Index().Series("binero.se", "se", simtime.SEStart, simtime.End, 60)
	within(t, "Binero .se full%%", se[len(se)-1].PctFull(), 92.9, 4)
	com := w.Index().Series("binero.se", "com", simtime.GTLDStart, simtime.End, 60)
	within(t, "Binero .com full%%", com[len(com)-1].PctFull(), 37.8, 4)
}

func TestFigure7PCExtremeStepAndTransIP(t *testing.T) {
	w := testWorld(t)
	pcx := w.Index().Series("pcextreme.nl", "com", simtime.GTLDStart-20, simtime.End, 1)
	at := func(day simtime.Day) colstore.SeriesPoint {
		return pcx[int(day-(simtime.GTLDStart-20))]
	}
	before := at(pcxStepDay - 2)
	after := at(pcxStepDay + 15)
	if before.PctFull() > 2 {
		t.Errorf("PCExtreme before step: %.2f%%, want ~0.44%%", before.PctFull())
	}
	if after.PctFull() < 90 {
		t.Errorf("PCExtreme after step: %.2f%%, want ~97-98%%", after.PctFull())
	}
	// The jump completes within ~10 days.
	if jump := after.PctFull() - before.PctFull(); jump < 85 {
		t.Errorf("step jump only %.1f points", jump)
	}
	within(t, "PCExtreme end full%%", pcx[len(pcx)-1].PctFull(), 97.0, 3)

	// TransIP: near-total where it is the registrar...
	com := w.Index().Series("transip.net", "com", simtime.GTLDStart, simtime.End, 60)
	within(t, "TransIP .com full%%", com[len(com)-1].PctFull(), 97, 3)
	// ...but only ~48.4% for .se, where the KeySystems partnership gates
	// DS uploads, ramping only after enablement.
	se := w.Index().Series("transip.net", "se", simtime.SEStart, simtime.End, 10)
	within(t, "TransIP .se full%% at end", se[len(se)-1].PctFull(), 48.4, 9)
	preEnable := w.Index().Series("transip.net", "se", keySystemsDSDay-30, keySystemsDSDay-1, 29)
	if preEnable[0].PctFull() > 2 {
		t.Errorf("TransIP .se full before KeySystems enablement: %.1f%%", preEnable[0].PctFull())
	}
}

func TestFigure8CloudflareDSGap(t *testing.T) {
	w := testWorld(t)
	cf := w.Index().Series("cloudflare.com", "", simtime.GTLDStart, simtime.End, 10)
	// Nothing before the universal DNSSEC launch.
	for _, p := range cf {
		if p.Day < simtime.CloudflareUniversalDNSSEC && p.WithDNSKEY > 0 {
			t.Errorf("Cloudflare DNSKEYs before launch at %v", p.Day)
			break
		}
	}
	last := cf[len(cf)-1]
	within(t, "Cloudflare %%DNSKEY at end", last.PctDNSKEY(), 1.9, 0.3)
	// The stagnant gap: ~39.3% of DNSKEY domains never get a DS.
	within(t, "Cloudflare DS|DNSKEY at end", last.PctDSGivenDNSKEY(), 60.7, 9)
	// The gap is stagnant from early on (paper: "remarkably stagnant").
	for _, p := range cf {
		// Only judge stagnation once the keyed population is large enough
		// for the ratio to be statistically meaningful at this scale.
		if p.Day > simtime.CloudflareUniversalDNSSEC+90 && p.WithDNSKEY > 80 {
			if gap := p.PctDSGivenDNSKEY(); math.Abs(gap-60.7) > 12 {
				t.Errorf("DS gap at %v = %.1f%%, want stagnant ~60%%", p.Day, gap)
			}
		}
	}
}

func TestSection52RegistrarShares(t *testing.T) {
	w := testWorld(t)
	snap := w.Index().Snapshot(simtime.End)
	fullPct := func(op string) float64 {
		total, full := 0, 0
		for i := range snap.Records {
			r := &snap.Records[i]
			if r.Operator != op || !inGTLD(r) {
				continue
			}
			total++
			if r.Deployment() == dnssec.DeploymentFull {
				full++
			}
		}
		if total == 0 {
			return 0
		}
		return 100 * float64(full) / float64(total)
	}
	// §5.2: OVH 25.9%, NameCheap 0.59%, GoDaddy 0.02%.
	within(t, "OVH share", fullPct("ovh.net"), 25.9, 3)
	within(t, "NameCheap share", fullPct("registrar-servers.com"), 0.59, 0.3)
	within(t, "GoDaddy share", fullPct("domaincontrol.com"), 0.02, 0.03)
}

func TestMaterializedScanMatchesModel(t *testing.T) {
	w := testWorld(t)
	sample := w.Sample(300, 7)
	mat, err := Materialize(simtime.End, sample)
	if err != nil {
		t.Fatal(err)
	}
	scanner, err := scan.New(scan.Config{
		Exchange:   mat.Net,
		TLDServers: mat.TLDServers,
		Workers:    8,
		Clock:      func() simtime.Day { return simtime.End },
	})
	if err != nil {
		t.Fatal(err)
	}
	var targets []scan.Target
	for _, d := range sample {
		targets = append(targets, scan.Target{Domain: d.Name, TLD: d.TLD})
	}
	snap, health, err := scanner.ScanDay(context.Background(), simtime.End, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Records) != len(sample) {
		t.Fatalf("scanned %d of %d", len(snap.Records), len(sample))
	}
	if len(health.ByClass) != 0 || health.Measured != len(sample) {
		t.Fatalf("unhealthy sweep over a clean network: %s", health)
	}
	// Every scanned record must classify exactly as the model predicts:
	// live measurement over real signed zones agrees with the state model.
	modelByName := make(map[string]dnssec.Deployment, len(sample))
	for i := range sample {
		rec := sample[i].RecordAt(simtime.End)
		modelByName[sample[i].Name] = rec.Deployment()
	}
	for i := range snap.Records {
		r := &snap.Records[i]
		if want := modelByName[r.Domain]; r.Deployment() != want {
			t.Errorf("%s: scanned %v, model %v", r.Domain, r.Deployment(), want)
		}
		if r.Operator == "" {
			t.Errorf("%s: no operator grouped", r.Domain)
		}
	}
}

func TestWorldDeterminism(t *testing.T) {
	worldBytes := func(seed int64) []byte {
		t.Helper()
		w, err := Build(WorldConfig{Scale: 1.0 / 50000, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := w.Index().Save(&buf, nil); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	a, b := worldBytes(9), worldBytes(9)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different serialized worlds")
	}
	if c := worldBytes(10); bytes.Equal(a, c) {
		t.Error("different seeds produced identical worlds")
	}
}

func TestRegistrarAggregations(t *testing.T) {
	w := testWorld(t)
	byReg := w.Index().DomainsByRegistrar("com", "net", "org")
	if byReg["GoDaddy"] < 30000 {
		t.Errorf("GoDaddy gTLD domains: %d", byReg["GoDaddy"])
	}
	keys := w.Index().DNSKEYByRegistrar(simtime.End, "com", "net", "org")
	// OVH ~372, Loopia ~132, TransIP ~138 at scale 1/1000.
	within(t, "OVH DNSKEY count", float64(keys["OVH"]), 372*4, 150)
	within(t, "Loopia DNSKEY count", float64(keys["Loopia"]), 132*4, 80)
	if ops := operatorsOf("OVH"); len(ops) != 2 {
		t.Errorf("OVH operators: %v", ops)
	}
}

// operatorsOf lists the operators a named registrar runs (from the named
// cohorts).
func operatorsOf(registrarName string) []string {
	seen := map[string]bool{}
	var out []string
	for _, c := range NamedCohorts() {
		if c.Registrar == registrarName && !seen[c.Operator] {
			seen[c.Operator] = true
			out = append(out, c.Operator)
		}
	}
	return out
}

func TestExpiredSignaturesScannedAsBroken(t *testing.T) {
	// A cohort serving lapsed RRSIGs must be measured as broken both by the
	// state model and by a live scan over genuinely expired signatures.
	w, err := BuildCustom(WorldConfig{Scale: 1, Seed: 5}, []Cohort{{
		Registrar: "Stale", Operator: "stale-host.example", TLD: "com",
		Domains: 30, Key: Flat(1), DS: DSSpec{Mode: DSWithKey}, ExpiredSigFrac: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	snap := w.Index().Snapshot(simtime.End)
	for i := range snap.Records {
		if snap.Records[i].Deployment() != dnssec.DeploymentBroken {
			t.Fatalf("model: %s is %v, want broken", snap.Records[i].Domain, snap.Records[i].Deployment())
		}
	}
	domains := Domains(w)
	mat, err := Materialize(simtime.End, domains)
	if err != nil {
		t.Fatal(err)
	}
	scanner, err := scan.New(scan.Config{
		Exchange: mat.Net, TLDServers: mat.TLDServers, Workers: 4,
		Clock: func() simtime.Day { return simtime.End },
	})
	if err != nil {
		t.Fatal(err)
	}
	var targets []scan.Target
	for _, d := range domains {
		targets = append(targets, scan.Target{Domain: d.Name, TLD: d.TLD})
	}
	live, _, err := scanner.ScanDay(context.Background(), simtime.End, targets)
	if err != nil {
		t.Fatal(err)
	}
	if len(live.Records) != 30 {
		t.Fatalf("scanned %d", len(live.Records))
	}
	for i := range live.Records {
		r := &live.Records[i]
		if !r.HasRRSIG {
			t.Errorf("%s: expired RRSIGs should still be served", r.Domain)
		}
		if r.Deployment() != dnssec.DeploymentBroken {
			t.Errorf("live scan: %s is %v, want broken (expired signature)", r.Domain, r.Deployment())
		}
	}
}

func TestSection1DSGapHeadline(t *testing.T) {
	// Section 1: "nearly 30% of .com, .net, and .org domains do not
	// properly upload DS records even though they have DNSKEYs and RRSIGs."
	w := testWorld(t)
	snap := w.Index().Snapshot(simtime.End)
	gap := analysis.DSGapPct(snap, inGTLD)
	within(t, "gTLD DS gap among DNSKEY domains", gap, 30, 8)
	// The ccTLDs, under incentive auditing, have a far smaller gap.
	nlGap := analysis.DSGapPct(snap, analysis.InTLD("nl"))
	if nlGap >= gap/2 {
		t.Errorf(".nl DS gap %.1f%% should be far below the gTLD gap %.1f%%", nlGap, gap)
	}
}
