// Package dataset defines the longitudinal measurement records produced by
// the scan engine — the analogue of the paper's OpenINTEL daily snapshots
// (section 4.1) — together with the DNS-operator grouping rules of section
// 4.2 and a snapshot store for time-series analysis.
package dataset

import (
	"sort"
	"strings"
	"sync"

	"securepki.org/registrarsec/internal/dnssec"
	"securepki.org/registrarsec/internal/simtime"
)

// Record is one domain's observed state on one day: the NS, DS, DNSKEY and
// RRSIG facts the paper's dataset carries for every second-level domain.
//
// Its archive line (persist.go) writes the TLD and Operator only where they
// differ from what the reader derives: the domain's last label, and
// GroupOperatorAll(NSHosts). So a record whose TLD or Operator is empty
// while its derivation is not reads back with the derived value. No writer
// produces one: the sweep always sets the grouping and the world its
// cohort names.
type Record struct {
	Domain string
	TLD    string
	// NSHosts are the delegation's nameserver names from the TLD zone. A
	// record read from an archive section may share this slice with the
	// other records of the section that name the same NS set: it is
	// read-only.
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
func (s *Snapshot) Canonicalize() { sortRecords(s.Records) }

// sortRecords orders records by the (TLD, domain) key their lines read back
// with, the order the spill merge keeps (lineKey).
func sortRecords(recs []Record) {
	sort.Slice(recs, func(i, j int) bool {
		a, b := &recs[i], &recs[j]
		if ta, tb := lineTLD(a), lineTLD(b); ta != tb {
			return ta < tb
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

// GroupOperator maps an authoritative nameserver hostname to a DNS-operator
// identity. The base rule is the nameserver's second-level domain; two
// special cases from the paper are applied: Amazon's awsdns-NN.* fleet
// collapses to "awsdns", and 1&1's per-ccTLD nameservers collapse to
// "1and1" (footnotes 13 and 15). It runs for every swept, written and read
// record, so it reads the name in one pass: for a canonical (lowercase)
// host it allocates nothing and returns a substring of it.
func GroupOperator(nsHost string) string {
	h := strings.TrimSuffix(nsHost, ".")
	op, canonical := groupName(h, false)
	if !canonical {
		op, _ = groupName(strings.ToLower(h), true)
	}
	return op
}

// groupName is GroupOperator over a name without its trailing dot. Unless
// the name is lowered already, it gives up (canonical false) at the first
// byte strings.ToLower could change.
func groupName(h string, lowered bool) (op string, canonical bool) {
	start, dot1, dot2 := 0, -1, -1 // the label in hand, the last two dots
	// Amazon Route 53's convention is a label awsdns-NN followed by a name of
	// [a-z.] alone: the second-level rule would split Amazon into one
	// operator per TLD. A later awsdns-NN label has a '-' in it, so only the
	// last one can be followed by [a-z.] alone.
	aws, off := -1, -1 // the dot after the last awsdns-NN label; the last byte outside [a-z.]
	// 1and1 nameservers share the "1and1" label across many ccTLDs
	// (ns-1and1.co.uk, ns.1and1.fr, ...).
	oneAndOne := false
	for i := 0; i <= len(h); i++ {
		if i < len(h) && h[i] != '.' {
			switch c := h[i]; {
			case 'a' <= c && c <= 'z':
			case !lowered && (c >= 0x80 || 'A' <= c && c <= 'Z'):
				return "", false
			default:
				off = i
			}
			continue
		}
		// A dot, or the end of the name: the label in hand is complete.
		label := h[start:i]
		if i < len(h) && awsdnsLabel(label) {
			aws = i
		}
		oneAndOne = oneAndOne || label == "1and1" || strings.HasSuffix(label, "-1and1")
		if i < len(h) {
			dot2, dot1 = dot1, i
		}
		start = i + 1
	}
	switch {
	case h == "":
		return "", true
	case aws >= 0 && aws < len(h)-1 && off < aws:
		return "awsdns", true
	case oneAndOne:
		return "1and1", true
	}
	return h[dot2+1:], true // the second level, as dnswire.SecondLevel has it
}

// awsdnsLabel reports whether label is "awsdns-" and one or more digits.
func awsdnsLabel(label string) bool {
	digits, ok := strings.CutPrefix(label, "awsdns-")
	if !ok || digits == "" {
		return false
	}
	for i := 0; i < len(digits); i++ {
		if digits[i] < '0' || digits[i] > '9' {
			return false
		}
	}
	return true
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
