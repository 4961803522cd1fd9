package scan

import "securepki.org/registrarsec/internal/dnswire"

// Helpers for the scan_test package's tests.

// Balanced reports whether the ledger identity holds: every input target
// is accounted for exactly once as measured, unregistered, skipped
// (unknown TLD), or failed. ScanDay guarantees it per sweep — including
// under cancellation — and Merge preserves it, so any aggregation of
// chunk or shard reports must balance too.
func (h *SweepHealth) Balanced() bool {
	return h.Targets == h.Measured+h.Unregistered+len(h.SkippedUnknownTLD)+len(h.Failures)
}

// Cancelled reports how many targets were abandoned to context
// cancellation rather than lost to the network.
func (h *SweepHealth) Cancelled() int {
	return h.ByClass[FailCancelled]
}

// DeadServers is the known-dead set a re-sweep pass would freeze now:
// servers the scanner's own counts saw fail and never answer.
func (s *Scanner) DeadServers() map[string]bool { return s.deadServers() }

// TargetsFromDomains builds scan targets from bare domain names.
func TargetsFromDomains(domains []string) []Target {
	out := make([]Target, 0, len(domains))
	for _, d := range domains {
		d = dnswire.CanonicalName(d)
		tld, ok := dnswire.Parent(d)
		if !ok {
			continue
		}
		out = append(out, Target{Domain: d, TLD: tld})
	}
	return out
}
