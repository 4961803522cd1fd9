package tldsim

import (
	"securepki.org/registrarsec/internal/simtime"
)

// Counterfactual scenarios for the paper's section 8 recommendations: the
// same generative world re-run with one policy lever changed, so the
// projected effect of each recommendation can be quantified against the
// baseline. These are forward-looking what-ifs, clearly distinct from the
// calibrated reproduction.

// Scenario identifies one recommendation experiment.
type Scenario int

const (
	// Baseline: the world exactly as measured.
	Baseline Scenario = iota
	// DefaultDNSSEC (recommendation 1): every registrar-hosted domain at
	// the top-20 registrars gets DNSSEC by default, rolling out at each
	// domain's renewal after the policy change.
	DefaultDNSSEC
	// UniversalCDS (recommendations 2-3): every registry polls
	// CDS/CDNSKEY, so a published DNSKEY always gets its DS installed —
	// partial deployments become full, and third-party-operator customers
	// no longer need the manual relay.
	UniversalCDS
	// GTLDIncentives (recommendation 4): .com/.net/.org adopt .nl-style
	// financial incentives; the gTLD tail responds like the Dutch and
	// Swedish hosting markets did.
	GTLDIncentives
)

// String names the scenario.
func (s Scenario) String() string {
	switch s {
	case DefaultDNSSEC:
		return "registrars-default"
	case UniversalCDS:
		return "universal-cds"
	case GTLDIncentives:
		return "gtld-incentives"
	}
	return "baseline"
}

// policyChangeDay is when the counterfactual policy takes effect (early in
// the measurement window, so the projection is visible by its end).
var policyChangeDay = simtime.Date(2015, 6, 1)

// ScenarioCohorts derives the cohort list for a scenario from the
// calibrated catalogue.
func ScenarioCohorts(s Scenario) []Cohort {
	cohorts := NamedCohorts()
	switch s {
	case Baseline:
		return cohorts
	case DefaultDNSSEC:
		// The big hosting registrars flip to DNSSEC-by-default; existing
		// domains migrate at renewal (the Antagonist/PCExtreme precedents
		// show both renewal ramps and fast cutovers are operationally
		// real; renewal is the conservative choice).
		flip := map[string]bool{
			"domaincontrol.com": true, "hichina.com": true, "1and1": true,
			"worldnic.com": true, "name-services.com": true, "bluehost.com": true,
			"registrar-servers.com": true, "wixdns.net": true, "hostgator.com": true,
			"namebrightdns.com": true, "register.com": true, "ovh.net": true,
			"anycast.me": true, "dreamhost.com": true, "wordpress.com": true,
			"xincache.com": true, "googledomains.com": true, "123-reg.co.uk": true,
			"yahoo.com": true, "name.com": true,
		}
		for i := range cohorts {
			c := &cohorts[i]
			if !flip[c.Operator] {
				continue
			}
			// Eventual coverage ~95% (some customers run custom setups the
			// registrar cannot sign).
			start := c.Key.StartFrac
			cohorts[i].Key = Renewal(start, 0.95, policyChangeDay)
			if cohorts[i].DS.Mode == DSNever {
				cohorts[i].DS = DSSpec{Mode: DSWithKey}
			}
		}
		return cohorts
	case UniversalCDS:
		// CDS polling turns every published DNSKEY into a full deployment:
		// DS-never cohorts and relay cohorts complete automatically once
		// the registry first polls them after the change.
		for i := range cohorts {
			c := &cohorts[i]
			switch c.DS.Mode {
			case DSNever:
				cohorts[i].DS = DSSpec{Mode: DSFromDay, Day: policyChangeDay}
			case DSRelay:
				cohorts[i].DS = DSSpec{Mode: DSFromDay, Day: policyChangeDay}
			case DSWithKey:
				if c.DS.Prob != 0 && c.DS.Prob < 1 {
					cohorts[i].DS = DSSpec{Mode: DSFromDay, Day: policyChangeDay, BrokenFrac: c.DS.BrokenFrac}
				}
			}
		}
		return cohorts
	case GTLDIncentives:
		// gTLD hosters respond the way the .nl/.se markets did: tail
		// behaviour is handled by the world builder (see Build), so here
		// the named gTLD laggards ramp up at renewals.
		for i := range cohorts {
			c := &cohorts[i]
			if c.TLD != "com" && c.TLD != "net" && c.TLD != "org" {
				continue
			}
			// Hosting registrars with no or weak DNSSEC move to high
			// adoption; parking services stay dark (no incentive covers a
			// parked page's economics at $0.30/domain... actually it does,
			// which is exactly the paper's point — model them ramping too).
			if c.Key.EndFrac < 0.5 {
				cohorts[i].Key = Renewal(c.Key.StartFrac, 0.75, policyChangeDay)
				cohorts[i].DS = DSSpec{Mode: DSWithKey, Prob: 0.97, BrokenFrac: 0.01}
			}
		}
		return cohorts
	}
	return cohorts
}

// BuildScenario generates a world for the scenario. The tail inherits the
// baseline calibration except under GTLDIncentives, where the gTLD tail
// adopts at ccTLD-like rates.
func BuildScenario(s Scenario, cfg WorldConfig) (*World, error) {
	if s == Baseline {
		return Build(cfg)
	}
	cfg.fill()
	// Reuse Build's tail calibration: the world is the modified named
	// cohorts plus the baseline plan's tail cohorts. Only the plan is
	// needed, so no baseline population is drawn.
	base, err := planCohorts(cfg)
	if err != nil {
		return nil, err
	}
	named := ScenarioCohorts(s)
	// Scale named cohorts like Build does.
	cohorts := make([]Cohort, 0, len(named)+len(base))
	for _, c := range named {
		c.Domains = int(float64(c.Domains)*cfg.Scale + 0.5)
		if c.Domains > 0 {
			cohorts = append(cohorts, c)
		}
	}
	// Tail cohorts from the baseline plan (already scaled), adjusted per
	// scenario.
	for _, c := range base {
		if c.Registrar != "" {
			continue // named; replaced above
		}
		switch s {
		case UniversalCDS:
			c.DS = DSSpec{Mode: DSFromDay, Day: policyChangeDay, BrokenFrac: c.DS.BrokenFrac}
		case GTLDIncentives:
			if c.TLD == "com" || c.TLD == "net" || c.TLD == "org" {
				// The tail responds like the .nl tail did: adoption grows
				// toward ~40% with near-complete DS upload.
				c.Key = Renewal(c.Key.StartFrac, 0.40, policyChangeDay)
				c.DS = DSSpec{Mode: DSWithKey, Prob: 0.95, BrokenFrac: 0.015}
			}
		}
		cohorts = append(cohorts, c)
	}
	return buildWorld(cfg, cohorts, cfg.Seed*31+int64(s))
}
