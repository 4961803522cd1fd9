// Package registrarsec is a full-system reproduction of "Understanding the
// Role of Registrars in DNSSEC Deployment" (Chung et al., IMC 2017).
//
// It bundles a complete DNSSEC measurement stack — wire format, signing and
// validation, authoritative serving, iterative validating resolution, an
// OpenINTEL-style scan engine — with a behavioural model of the domain
// registration ecosystem: registries (with ccTLD financial incentives and
// RFC 7344 CDS polling), the paper's named registrars and resellers with
// their observed DNSSEC policies, third-party DNS operators, and the
// out-of-band channels (web forms, email, tickets, live chat) through which
// DS records travel — and so often get lost.
//
// The Study type is the top-level entry point: it builds the world, probes
// registrars exactly as the paper's authors did (by buying domains and
// trying to deploy DNSSEC), runs longitudinal measurements, and regenerates
// every table and figure of the paper's evaluation.
package registrarsec

import (
	"context"
	"fmt"
	"strings"

	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/probe"
	"securepki.org/registrarsec/internal/registrar"
	"securepki.org/registrarsec/internal/registry"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// Re-exported types forming the public API surface.
type (
	// Observation is one registrar's probe result (a Table 2/3 row).
	Observation = probe.Observation
	// SeriesPoint is one day of a deployment time series.
	SeriesPoint = analysis.SeriesPoint
	// CDFPoint is one step of the Figure 3 operator CDF.
	CDFPoint = analysis.CDFPoint
	// TLDOverview is one Table 1 row.
	TLDOverview = analysis.TLDOverview
	// Index is a columnar domain population the figures are computed
	// over: the model's (World.Index) or a measurement's (Measure).
	Index = colstore.Index
	// Deployment is the none/partial/full/broken classification.
	Deployment = dnssec.Deployment
	// Day is a simulation day (days since 2015-01-01).
	Day = simtime.Day
	// SurveyRow is one Table 4 row.
	SurveyRow = probe.SurveyRow
	// SweepHealth is a scan sweep's failure-accounting report.
	SweepHealth = scan.SweepHealth
	// FaultRule declares injected transport faults for one server pattern.
	FaultRule = faultnet.Rule
	// Registrar is a live registrar agent.
	Registrar = registrar.Registrar
	// World is the generated domain population.
	World = tldsim.World
)

// Deployment classes.
const (
	DeploymentNone    = dnssec.DeploymentNone
	DeploymentPartial = dnssec.DeploymentPartial
	DeploymentFull    = dnssec.DeploymentFull
	DeploymentBroken  = dnssec.DeploymentBroken
)

// Milestone days of the measurement window.
var (
	WindowStart   = simtime.GTLDStart
	WindowEnd     = simtime.End
	NLWindowStart = simtime.NLStart
	SEWindowStart = simtime.SEStart
	CloudflareDay = simtime.CloudflareUniversalDNSSEC
)

// AllTLDs is the study's TLD set: com, net, org, nl, se.
var AllTLDs = tldsim.AllTLDs

// Options configure a Study.
type Options struct {
	// Scale shrinks the domain populations (default 1/1000).
	Scale float64
	// Seed makes the world reproducible (default 1).
	Seed int64
	// SkipWorld omits the domain-population model (probe-only studies).
	SkipWorld bool
	// SkipAgents omits the live registrar agents (measurement-only
	// studies).
	SkipAgents bool
	// WorldCacheDir, when set, caches the generated world on disk keyed
	// by (seed, scale, config fingerprint): the first study builds and
	// saves it, later studies load it in O(seconds).
	WorldCacheDir string
}

// Study is a fully wired reproduction environment.
type Study struct {
	// Eco is the live substrate: root, registries, network, clock.
	Eco *ecosystem.Ecosystem
	// World is the generated domain population (nil with SkipWorld).
	World *tldsim.World
	// Agents are the catalogue registrars by ID (nil with SkipAgents).
	Agents map[string]*registrar.Registrar
	// Top20 and Top10 are the probe populations of Tables 2 and 3.
	Top20, Top10 []*registrar.Registrar
}

// NewStudy builds the ecosystem, the registrar agents, and the domain
// population model.
func NewStudy(opts Options) (*Study, error) {
	if opts.Scale == 0 {
		opts.Scale = 1.0 / 1000
	}
	if opts.Seed == 0 {
		opts.Seed = 1
	}
	eco, err := ecosystem.New(ecosystem.Config{
		TLDs: tldsim.AllTLDs,
		Incentives: map[string]*registry.Incentive{
			// The .nl and .se incentive programs (section 6.3): €0.28/yr
			// and ~10 SEK/yr per correctly signed domain, with compliance
			// auditing.
			"nl": {DiscountPerYear: 0.28, MaxFailures: 14, WindowDays: 180},
			"se": {DiscountPerYear: 1.10, MaxFailures: 14, WindowDays: 180},
		},
	})
	if err != nil {
		return nil, err
	}
	s := &Study{Eco: eco}
	if !opts.SkipAgents {
		byID, top20, top10, err := tldsim.BuildAgents(eco.Registries, eco.Net, eco.Clock.Day)
		if err != nil {
			return nil, err
		}
		s.Agents, s.Top20, s.Top10 = byID, top20, top10
	}
	if !opts.SkipWorld {
		world, err := tldsim.BuildCached(opts.WorldCacheDir, tldsim.WorldConfig{Scale: opts.Scale, Seed: opts.Seed})
		if err != nil {
			return nil, err
		}
		s.World = world
	}
	return s, nil
}

// Prober returns a prober bound to this study's environment.
func (s *Study) Prober() *probe.Prober {
	return probe.New(&probe.Env{
		Tree:       s.Eco.Tree,
		Registries: s.Eco.Registries,
		Clock:      s.Eco.Clock.Day,
	})
}

// ProbeTable2 runs the hands-on methodology against the top-20 registrars.
func (s *Study) ProbeTable2() []*Observation {
	return s.Prober().RunAll(context.Background(), s.Top20)
}

// ProbeTable3 runs it against the ten DNSSEC-heavy registrars.
func (s *Study) ProbeTable3() []*Observation {
	return s.Prober().RunAll(context.Background(), s.Top10)
}

// SurveyTable4 asks the eleven DNSSEC-supporting DNS operators for their
// per-TLD standing.
func (s *Study) SurveyTable4() []SurveyRow {
	ids := []string{
		"ovh", "godaddy", "meshdigital", "domainnameshop", "transip",
		"namecheap", "binero", "pcextreme", "antagonist", "loopia", "kpn",
	}
	regs := make([]*registrar.Registrar, 0, len(ids))
	for _, id := range ids {
		if r := s.Agents[id]; r != nil {
			regs = append(regs, r)
		}
	}
	return probe.Survey(regs, s.Agents, tldsim.AllTLDs)
}

// Table1 computes the dataset overview at the end of the window on the
// columnar engine — no snapshot materialization, sharded parallel tally.
func Table1(idx *Index) []TLDOverview {
	return idx.Overview(simtime.End, tldsim.AllTLDs)
}

// Figure3 computes the three operator CDFs of Figure 3 over the gTLDs,
// counting per dense operator ID instead of rebuilding string-keyed maps
// from a materialized snapshot.
func Figure3(idx *Index) (all, partial, full []CDFPoint) {
	all = idx.OperatorCDF(simtime.End, colstore.ClassAny, tldsim.GTLDs...)
	partial = idx.OperatorCDF(simtime.End, colstore.ClassPartial, tldsim.GTLDs...)
	full = idx.OperatorCDF(simtime.End, colstore.ClassFull, tldsim.GTLDs...)
	return all, partial, full
}

// OperatorsToCover re-exports the CDF coverage helper.
func OperatorsToCover(cdf []CDFPoint, frac float64) int {
	return analysis.OperatorsToCover(cdf, frac)
}

// Figure4 returns the OVH and GoDaddy full-deployment series.
func Figure4(idx *Index, stepDays int) (ovh, godaddy []SeriesPoint) {
	return idx.Series("ovh.net", "", simtime.GTLDStart, simtime.End, stepDays),
		idx.Series("domaincontrol.com", "", simtime.GTLDStart, simtime.End, stepDays)
}

// Figure8 returns the Cloudflare series (DNSKEY growth and the DS gap).
func Figure8(idx *Index, stepDays int) []SeriesPoint {
	return idx.Series("cloudflare.com", "", simtime.GTLDStart, simtime.End, stepDays)
}

// LongitudinalConfig configures a resumable multi-day sweep.
type LongitudinalConfig struct {
	// Days are the measurement days, strictly ascending.
	Days []Day
	// Sample is the number of domains drawn from the world (default 1000;
	// the same sample is tracked across every day, as the paper tracks a
	// fixed population).
	Sample int
	// SampleSeed drives the sample draw (default: the world's seed, as
	// for regsec-scan).
	SampleSeed int64
	// Workers is the per-day scan concurrency.
	Workers int
	// Shards is the number of target shards per day (default 4) — the
	// lease unit of a distributed sweep.
	Shards int
	// CheckpointDir, when non-empty, makes the sweep crash-safe: each
	// completed chunk (scan.DefaultChunk targets) of a shard is durably
	// checkpointed there, and a re-run resumes from the last completed
	// chunk with finished days verified by checksum instead of re-scanned.
	CheckpointDir string
	// FaultSeed (default 1) and Rules optionally inject transport faults.
	FaultSeed int64
	Rules     []FaultRule
	// OnDayHealth receives per-day health reports.
	OnDayHealth func(day Day, h *SweepHealth)
	// Archive is the path of the archive file the sweep writes (required).
	Archive string
	// Fleet, when positive, is the number of in-process workers leasing
	// (day, shard) units from a dsweep coordinator, each with its own
	// exchange stack; CheckpointDir is their shared chunk store and
	// required. Zero sweeps in one process.
	Fleet int
}

// plan translates the configuration into the sweep definition regsec-scan
// and regsec-sweepd assemble from their flags, over this study's world, and
// opens the checkpoint store when the configuration names one — after
// CheckDays, so days out of order leave nothing on disk.
func (s *Study) plan(cfg LongitudinalConfig) (dsweep.Plan, *checkpoint.Store, error) {
	if s.World == nil {
		return dsweep.Plan{}, nil, fmt.Errorf("study: a longitudinal sweep requires a world (Options.SkipWorld unset)")
	}
	if len(cfg.Days) == 0 {
		return dsweep.Plan{}, nil, fmt.Errorf("study: no measurement days")
	}
	if err := dsweep.CheckDays(cfg.Days); err != nil {
		return dsweep.Plan{}, nil, err
	}
	spec := dsweep.WorldSpec{
		ScaleDiv: 1 / s.World.Config.Scale, Seed: s.World.Config.Seed,
		Sample: cfg.Sample, SampleSeed: cfg.SampleSeed, Workers: cfg.Workers,
		FaultSeed: cfg.FaultSeed, Rules: cfg.Rules,
	}
	shards := cfg.Shards
	if shards <= 0 {
		shards = 4
	}
	var cp *checkpoint.Store
	if cfg.CheckpointDir != "" {
		var err error
		if cp, err = checkpoint.Open(cfg.CheckpointDir); err != nil {
			return dsweep.Plan{}, nil, err
		}
	}
	return spec.PlanFor(cfg.Days, shards, 0), cp, nil
}

// Measure runs a multi-day, checkpoint-resumable sweep over one fixed
// domain sample — the paper's daily series in miniature — into the archive
// file cfg.Archive, as regsec-scan -o (or, with a Fleet, regsec-sweepd)
// writes it, and returns the index regsec-report -archive folds from that
// file. A cancelled sweep persists a clean checkpoint and returns the
// context's error; the same configuration then resumes, and the archive is
// byte-identical to an uninterrupted run's. On a sweep error no archive is
// left; the checkpoint directory is left for the caller to clear. An
// archive that does not read back clean is an error.
func (s *Study) Measure(ctx context.Context, cfg LongitudinalConfig) (*Index, error) {
	if cfg.Archive == "" {
		return nil, fmt.Errorf("study: no archive path")
	}
	plan, cp, err := s.plan(cfg)
	if err != nil {
		return nil, err
	}
	aw, err := dataset.NewArchiveWriter(cfg.Archive)
	if err != nil {
		return nil, err
	}
	defer aw.Abort()
	sink := func(_ Day, sw *dataset.SpillWriter) error { return aw.Section(sw) }
	if cfg.Fleet <= 0 {
		err = plan.Sweep(s.World, cp, dataset.SpillOptions{}, cfg.OnDayHealth).RunStream(ctx, plan.Days, sink)
	} else {
		var res *dsweep.Result
		res, err = dsweep.RunLocal(ctx, dsweep.LocalConfig{Plan: plan, Store: cp, Workers: plan.Fleet(s.World, cfg.Fleet)}, sink)
		if err == nil && cfg.OnDayHealth != nil {
			for _, day := range plan.Days {
				if h := res.HealthByDay[day]; h != nil {
					cfg.OnDayHealth(day, h)
				}
			}
		}
	}
	if err == nil {
		err = aw.Close()
	}
	if err != nil {
		return nil, err
	}
	idx, report, err := colstore.FoldArchive(cfg.Archive, nil)
	if err == nil && !report.Clean() {
		err = fmt.Errorf("study: %s: %s", cfg.Archive, report)
	}
	if err != nil {
		return nil, err
	}
	return idx, nil
}

// RenderTable2 formats Table 2 observations with per-registrar domain
// counts from the world model.
func (s *Study) RenderTable2(obs []*Observation) string {
	counts := map[string]int{}
	if s.World != nil {
		counts = s.World.Index().DomainsByRegistrar("com", "net", "org")
	}
	return probe.RenderTable2(obs, counts)
}

// RenderTable3 formats Table 3 observations with DNSKEY counts.
func (s *Study) RenderTable3(obs []*Observation) string {
	counts := map[string]int{}
	if s.World != nil {
		counts = s.World.Index().DNSKEYByRegistrar(simtime.End, "com", "net", "org")
	}
	return probe.RenderTable3(obs, counts)
}

// RenderTable4 formats the survey matrix.
func RenderTable4(rows []SurveyRow) string {
	return probe.RenderTable4(rows, tldsim.AllTLDs)
}

// RenderTable1 formats the dataset overview.
func RenderTable1(rows []TLDOverview) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%-5s  %12s  %10s  %10s  %10s\n", "TLD", "Domains", "%DNSKEY", "%Full", "%Partial")
	sb.WriteString(strings.Repeat("-", 56))
	sb.WriteString("\n")
	for _, r := range rows {
		fmt.Fprintf(&sb, ".%-4s  %12d  %9.2f%%  %9.2f%%  %9.2f%%\n",
			r.TLD, r.Domains, r.PctDNSKEY, r.PctFull, r.PctPartial)
	}
	return sb.String()
}

// Summarize tallies probe observations into the section-5 headline counts.
func Summarize(obs []*Observation) probe.Table2Summary {
	return probe.Summarize(obs)
}
