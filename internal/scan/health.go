package scan

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"strings"

	"securepki.org/registrarsec/internal/exchange"
	"securepki.org/registrarsec/internal/simtime"
)

// FailClass buckets why a target could not be measured.
type FailClass string

// Failure classes reported in SweepHealth.ByClass.
const (
	// FailTimeout is packet loss, an unresponsive server, or an outage.
	FailTimeout FailClass = "timeout"
	// FailNoRoute is a server address the transport cannot reach at all.
	FailNoRoute FailClass = "noroute"
	// FailLame is a SERVFAIL/REFUSED where an answer was required.
	FailLame FailClass = "lame"
	// FailNoNS is a registered domain whose referral carried no NS RRset.
	FailNoNS FailClass = "no-ns"
	// FailMalformed is a referral naming an NS host that an archive record
	// line cannot carry (dataset.LineCarriesHost): a hostile or broken
	// parent, recorded as a gap rather than a line that corrupts its day.
	FailMalformed FailClass = "malformed"
	// FailTransport is any other transport-level error.
	FailTransport FailClass = "transport"
	// FailUnknownTLD is a target under a TLD with no configured server —
	// a sweep configuration gap, distinct from NXDOMAIN.
	FailUnknownTLD FailClass = "unknown-tld"
	// FailCancelled is a target the sweep abandoned because its context
	// was cancelled — a SIGINT, a shutdown, or an upstream deadline. It is
	// a distinct class so resumed sweeps and health dashboards can tell
	// "the operator stopped the run" from "the network lost the target".
	FailCancelled FailClass = "cancelled"
)

// Failure is one target the sweep could not measure, after all retries and
// re-sweep passes.
type Failure struct {
	Target Target
	// Stage is the step that failed: "ns", "ds", or "dnskey".
	Stage string
	Class FailClass
	// Err is the last underlying error, for diagnostics.
	Err string
}

// Error makes a *Failure the error Observe returns.
func (f *Failure) Error() string {
	msg := fmt.Sprintf("%s: %s step failed (%s)", f.Target.Domain, f.Stage, f.Class)
	if f.Err != "" {
		msg += ": " + f.Err
	}
	return msg
}

// SweepHealth is the failure accounting for one ScanDay: what was measured,
// what could not be, and what the retry layer spent getting there. It is
// how longitudinal series distinguish "no DNSKEY" from "could not measure"
// — the same role OpenINTEL's measurement-gap markers play for the paper's
// dataset.
type SweepHealth struct {
	Day simtime.Day
	// Targets is the sweep's input size.
	Targets int
	// Measured counts targets with a real observation in the snapshot.
	Measured int
	// Unregistered counts NXDOMAIN targets (absent from the zone — not a
	// failure, they are simply not registered).
	Unregistered int
	// SkippedUnknownTLD lists targets under TLDs missing from
	// Config.TLDServers.
	SkippedUnknownTLD []string
	// Failures lists the targets still unmeasured after every re-sweep.
	Failures []Failure
	// ByClass tallies failures (and unknown-TLD skips) per class; it is
	// empty when every target was measured or found unregistered.
	ByClass map[FailClass]int
	// Resweeps is how many bounded re-sweep passes ran over failed
	// targets. Shards re-sweep side by side, so a merged report holds the
	// most passes any one shard ran, never more than the bound.
	Resweeps int
	// Exchange is the exchange stack's per-layer interval accounting for
	// this sweep: transport exchanges, cache hit rate, dedup coalescing,
	// retries spent and exchanges that exhausted them.
	Exchange exchange.Counters
}

// Merge folds another report into h — used to aggregate per-shard health
// into one per-day report in checkpointed sweeps. Counts add up, but for
// Resweeps, which takes the larger of the two.
func (h *SweepHealth) Merge(o *SweepHealth) {
	if o == nil {
		return
	}
	if h.ByClass == nil {
		h.ByClass = make(map[FailClass]int)
	}
	h.Targets += o.Targets
	h.Measured += o.Measured
	h.Unregistered += o.Unregistered
	h.SkippedUnknownTLD = append(h.SkippedUnknownTLD, o.SkippedUnknownTLD...)
	h.Failures = append(h.Failures, o.Failures...)
	for class, n := range o.ByClass {
		h.ByClass[class] += n
	}
	h.Resweeps = max(h.Resweeps, o.Resweeps)
	h.Exchange = h.Exchange.Add(o.Exchange)
}

// String renders a one-line summary for logs and CLI output.
func (h *SweepHealth) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "sweep %s: %d/%d measured, %d unregistered",
		h.Day, h.Measured, h.Targets, h.Unregistered)
	if len(h.Failures) > 0 {
		classes := make([]string, 0, len(h.ByClass))
		for class, n := range h.ByClass {
			if class == FailUnknownTLD {
				continue
			}
			classes = append(classes, fmt.Sprintf("%s:%d", class, n))
		}
		sort.Strings(classes)
		fmt.Fprintf(&sb, ", %d failed (%s)", len(h.Failures), strings.Join(classes, " "))
	}
	if n := len(h.SkippedUnknownTLD); n > 0 {
		fmt.Fprintf(&sb, ", %d unknown-TLD skipped", n)
	}
	fmt.Fprintf(&sb, ", %d retries", h.Exchange.Retry.Retries)
	if h.Resweeps > 0 {
		fmt.Fprintf(&sb, ", %d resweep(s)", h.Resweeps)
	}
	if h.Exchange.Transport.Exchanges > 0 {
		fmt.Fprintf(&sb, " [%s]", h.Exchange)
	}
	return sb.String()
}

// timeouter is the net.Error-style timeout marker implemented by transport
// and fault errors.
type timeouter interface{ Timeout() bool }

// classifyErr buckets a transport error into a failure class.
func classifyErr(err error) FailClass {
	switch {
	case errors.Is(err, context.Canceled):
		return FailCancelled
	case errors.Is(err, exchange.ErrNoRoute):
		return FailNoRoute
	case errors.Is(err, context.DeadlineExceeded):
		return FailTimeout
	default:
		var to timeouter
		if errors.As(err, &to) && to.Timeout() {
			return FailTimeout
		}
		return FailTransport
	}
}
