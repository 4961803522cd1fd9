package tldsim

import (
	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/simtime"
)

// Fault profiles for materialized worlds: the paper's sweeps ran against
// live infrastructure where operators drop packets, serve lame answers,
// and go dark for days. These helpers declare such flaky operators for a
// materialized day so the resilient scan path can be exercised — and its
// failure accounting verified — against a known fault schedule.

// LossyOperators deterministically picks frac of the distinct DNS
// operators appearing in domains and returns faultnet rules injecting
// packet loss on each of their nameservers, plus the chosen operator
// names (sorted). The selection is seeded, so the same inputs always
// produce the same flaky set.
func LossyOperators(domains []DomainState, frac, loss float64, seed int64) ([]faultnet.Rule, []string) {
	seen := map[string]bool{}
	var operators []string
	for i := range domains {
		if op := domains[i].Operator; !seen[op] {
			seen[op] = true
			operators = append(operators, op)
		}
	}
	return lossyFromOperators(operators, frac, loss, seed)
}

// OperatorOutage declares a dark window for one operator's nameserver: it
// times out on every simulated day in [from, to].
func OperatorOutage(operator string, from, to simtime.Day) faultnet.Rule {
	return faultnet.Rule{Pattern: nsFor(operator), OutageFrom: from, OutageTo: to}
}

// FaultyExchanger wraps the materialized network in a fault injector bound
// to the materialized day, so scheduled outages line up with the day being
// measured.
func (m *Materialized) FaultyExchanger(seed int64, rules ...faultnet.Rule) *faultnet.Injector {
	day := m.Day
	return faultnet.New(m.Net, seed, func() simtime.Day { return day }, rules...)
}

// NSHostOf exposes the operator→nameserver mapping for tests and tools
// that need to address one operator's server directly.
func NSHostOf(operator string) string { return nsFor(operator) }

var _ exchange.Exchanger = (*faultnet.Injector)(nil)
