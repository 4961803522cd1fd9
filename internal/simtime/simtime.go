// Package simtime provides the day-granular clock used throughout the
// ecosystem simulation. The paper's datasets are daily snapshots, so a Day
// index (days since 2015-01-01 UTC) is the natural unit; conversions to
// time.Time anchor DNSSEC signature validity windows.
package simtime

import (
	"fmt"
	"time"
)

// Day counts days since the simulation epoch, 2015-01-01 UTC.
type Day int

// Epoch is day zero.
var Epoch = time.Date(2015, 1, 1, 0, 0, 0, 0, time.UTC)

// Never marks "has not happened": comparisons against any real Day are
// always after.
const Never Day = 1 << 30

// Milestones of the paper's measurement window.
var (
	// GTLDStart is the first day of the .com/.net/.org scans (2015-03-01).
	GTLDStart = Date(2015, 3, 1)
	// NLStart is the first day of the .nl scans (2016-02-09).
	NLStart = Date(2016, 2, 9)
	// SEStart is the first day of the .se scans (2016-06-07).
	SEStart = Date(2016, 6, 7)
	// End is the last day of all scans (2016-12-31).
	End = Date(2016, 12, 31)
	// CloudflareUniversalDNSSEC is the launch date of Cloudflare's
	// universal DNSSEC (2015-11-11, section 7).
	CloudflareUniversalDNSSEC = Date(2015, 11, 11)
)

// Date builds a Day from a calendar date.
func Date(year int, month time.Month, day int) Day {
	t := time.Date(year, month, day, 0, 0, 0, 0, time.UTC)
	return Day(t.Sub(Epoch) / (24 * time.Hour))
}

// FromTime truncates a time.Time to its Day.
func FromTime(t time.Time) Day {
	return Day(t.UTC().Sub(Epoch) / (24 * time.Hour))
}

// Time returns midnight UTC of the day.
func (d Day) Time() time.Time {
	return Epoch.Add(time.Duration(d) * 24 * time.Hour)
}

// String renders the day as an ISO date.
func (d Day) String() string {
	if d == Never {
		return "never"
	}
	return d.Time().Format("2006-01-02")
}

// Parse converts an ISO date ("2016-12-31") to a Day. A date a Day cannot
// represent — beyond the ±292 years of time.Duration around the epoch —
// is an error.
func Parse(s string) (Day, error) {
	t, err := time.Parse("2006-01-02", s)
	if err != nil {
		return 0, fmt.Errorf("simtime: %w", err)
	}
	if d := FromTime(t); d.Time().Equal(t) {
		return d, nil
	}
	return 0, fmt.Errorf("simtime: %s is outside the range of a Day", s)
}
