// Package dataset defines the longitudinal measurement records produced by
// the scan engine — the analogue of the paper's OpenINTEL daily snapshots
// (section 4.1) — together with the DNS-operator grouping rules of section
// 4.2 and a snapshot store for time-series analysis.
package dataset

import (
	"regexp"
	"sort"
	"strings"
	"sync"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/simtime"
)

// Record is one domain's observed state on one day: the NS, DS, DNSKEY and
// RRSIG facts the paper's dataset carries for every second-level domain.
type Record struct {
	Domain string
	TLD    string
	// NSHosts are the delegation's nameserver names from the TLD zone.
	NSHosts []string
	// Operator is the grouped DNS operator identity (see GroupOperator).
	Operator string
	// HasDNSKEY is whether the domain serves at least one DNSKEY.
	HasDNSKEY bool
	// HasRRSIG is whether the DNSKEY RRset is signed.
	HasRRSIG bool
	// HasDS is whether the TLD zone carries a DS RRset for the domain.
	HasDS bool
	// ChainValid is whether a DS matches a served DNSKEY and the DNSKEY
	// RRset signature verifies.
	ChainValid bool
	// Failed marks a target that could not be measured that day — the
	// OpenINTEL-style measurement-gap marker. A failed record's DNSSEC
	// fields are meaningless and must not enter deployment statistics:
	// "could not measure" is not "no DNSKEY". The figures (colstore's
	// ingest) never let a Failed record create or change a domain's row,
	// so a domain measured earlier keeps its last observed state: Table
	// 1's Domains column is the zone's population, and the world file
	// would need a column of its own to say "unmeasured on day d".
	Failed bool
	// FailReason carries the failure class when Failed ("timeout",
	// "lame", ...), empty otherwise.
	FailReason string
}

// Measured reports whether the record carries a real observation.
func (r *Record) Measured() bool { return !r.Failed }

// Deployment classifies the record per the paper's taxonomy.
func (r *Record) Deployment() dnssec.Deployment {
	return dnssec.Classify(r.HasDNSKEY, r.HasDS, r.ChainValid)
}

// Snapshot is all records observed on one day. Records with Failed set are
// placeholders for targets the sweep could not measure; they keep the gap
// visible in the archive without polluting deployment statistics.
type Snapshot struct {
	Day     simtime.Day
	Records []Record
}

// Canonicalize sorts the records into the deterministic archive order (by
// TLD, then domain). Scan sweeps append records in worker-completion
// order; canonicalizing before archiving makes two runs over the same
// targets produce byte-identical archives — the property the
// checkpoint/resume path's integrity checks rely on.
func (s *Snapshot) Canonicalize() {
	sort.Slice(s.Records, func(i, j int) bool {
		a, b := &s.Records[i], &s.Records[j]
		if a.TLD != b.TLD {
			return a.TLD < b.TLD
		}
		return a.Domain < b.Domain
	})
}

// MeasuredCount returns how many records carry real observations.
func (s *Snapshot) MeasuredCount() int {
	n := 0
	for i := range s.Records {
		if s.Records[i].Measured() {
			n++
		}
	}
	return n
}

// awsdnsPattern matches Amazon Route 53's nameserver naming convention,
// awsdns-NN.TLD (footnote 15): the second-level grouping rule would split
// Amazon into one operator per TLD without this special case.
var awsdnsPattern = regexp.MustCompile(`(^|\.)awsdns-\d+\.[a-z.]+$`)

// GroupOperator maps an authoritative nameserver hostname to a DNS-operator
// identity. The base rule is the nameserver's second-level domain; two
// special cases from the paper are applied: Amazon's awsdns-NN.* fleet
// collapses to "awsdns", and 1&1's per-ccTLD nameservers collapse to
// "1and1" (footnotes 13 and 15).
func GroupOperator(nsHost string) string {
	h := dnswire.CanonicalName(nsHost)
	if h == "" {
		return ""
	}
	if awsdnsPattern.MatchString(h) {
		return "awsdns"
	}
	// 1and1 nameservers share the "1and1" second-level label across many
	// ccTLDs (ns-1and1.co.uk, ns.1and1.fr, ...).
	for _, label := range dnswire.SplitLabels(h) {
		if label == "1and1" || strings.HasSuffix(label, "-1and1") {
			return "1and1"
		}
	}
	return dnswire.SecondLevel(h)
}

// GroupOperatorAll groups a whole NS set, using the first host's group (NS
// sets virtually always share an operator; the paper groups by the shared
// second-level domain).
func GroupOperatorAll(nsHosts []string) string {
	if len(nsHosts) == 0 {
		return ""
	}
	return GroupOperator(nsHosts[0])
}

// Store is a day-indexed snapshot archive.
type Store struct {
	mu        sync.RWMutex
	snapshots map[simtime.Day]*Snapshot
}

// NewStore creates an empty archive.
func NewStore() *Store {
	return &Store{snapshots: make(map[simtime.Day]*Snapshot)}
}

// Add inserts or replaces a snapshot.
func (s *Store) Add(snap *Snapshot) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.snapshots[snap.Day] = snap
}

// Get returns the snapshot for day, or nil.
func (s *Store) Get(day simtime.Day) *Snapshot {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.snapshots[day]
}

// Days returns the archived days in ascending order.
func (s *Store) Days() []simtime.Day {
	s.mu.RLock()
	defer s.mu.RUnlock()
	days := make([]simtime.Day, 0, len(s.snapshots))
	for d := range s.snapshots {
		days = append(days, d)
	}
	sort.Slice(days, func(i, j int) bool { return days[i] < days[j] })
	return days
}

// Len returns the number of archived snapshots.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.snapshots)
}
