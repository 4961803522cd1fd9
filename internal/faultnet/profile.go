package faultnet

import (
	"fmt"
	"strconv"
	"strings"
	"time"

	"securepki.org/registrarsec/internal/simtime"
)

// ParseProfile parses a vantage-point fault profile: one rule per line,
// a server pattern followed by key=value fault settings. It is the text
// form distributed sweep workers take on the command line, so each worker
// process can model its own network vantage without recompiling.
//
//	# lossy resolver path to one operator
//	*.flaky.example  loss=0.2 latency=30ms
//	ns1.dark.example timeout=1.0
//	*.maint.example  outage=2016-06-01..2016-06-03
//
// Keys: loss, timeout, servfail, refused, truncate, badid (probabilities
// in [0,1] that sum to at most 1 on a line, since the classes share one
// draw); latency (Go duration); outage (ISO day range, inclusive). Blank
// lines and #-comments are ignored. Rules keep file order (first match
// wins, as in Injector).
func ParseProfile(text string) ([]Rule, error) {
	var rules []Rule
	for lineNo, raw := range strings.Split(text, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		rule := Rule{Pattern: fields[0]}
		for _, kv := range fields[1:] {
			key, value, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, fmt.Errorf("faultnet: profile line %d: %q is not key=value", lineNo+1, kv)
			}
			if err := setRuleField(&rule, key, value); err != nil {
				return nil, fmt.Errorf("faultnet: profile line %d: %w", lineNo+1, err)
			}
		}
		if sum := probSum(&rule); sum > 1+1e-9 { // allow decimal rounding
			return nil, fmt.Errorf("faultnet: profile line %d: fault probabilities sum to %g, more than 1", lineNo+1, sum)
		}
		rules = append(rules, rule)
	}
	return rules, nil
}

// setRuleField applies one key=value setting to a rule.
func setRuleField(rule *Rule, key, value string) error {
	prob := func(dst *float64) error {
		p, err := strconv.ParseFloat(value, 64)
		if err != nil || !(p >= 0 && p <= 1) { // NaN fails both comparisons
			return fmt.Errorf("%s=%q: want a probability in [0,1]", key, value)
		}
		*dst = p
		return nil
	}
	switch key {
	case "loss":
		return prob(&rule.Loss)
	case "timeout":
		return prob(&rule.Timeout)
	case "servfail":
		return prob(&rule.ServFail)
	case "refused":
		return prob(&rule.Refused)
	case "truncate":
		return prob(&rule.Truncate)
	case "badid":
		return prob(&rule.BadID)
	case "latency":
		d, err := time.ParseDuration(value)
		if err != nil || d < 0 {
			return fmt.Errorf("latency=%q: want a non-negative duration", value)
		}
		rule.Latency = d
		return nil
	case "outage":
		from, to, ok := strings.Cut(value, "..")
		if !ok {
			return fmt.Errorf("outage=%q: want FROM..TO (ISO days)", value)
		}
		fromDay, err := simtime.Parse(from)
		if err != nil {
			return fmt.Errorf("outage from: %w", err)
		}
		toDay, err := simtime.Parse(to)
		if err != nil {
			return fmt.Errorf("outage to: %w", err)
		}
		if toDay < fromDay {
			return fmt.Errorf("outage=%q: window ends before it starts", value)
		}
		rule.OutageFrom, rule.OutageTo = fromDay, toDay
		return nil
	default:
		return fmt.Errorf("unknown fault key %q", key)
	}
}

// probSum is the share of one rule's draws that inject a fault: the
// Injector walks the classes as consecutive bands of one uniform draw, so
// a sum above 1 would silently shrink the later classes.
func probSum(r *Rule) float64 {
	return r.Loss + r.Timeout + r.ServFail + r.Refused + r.Truncate + r.BadID
}
