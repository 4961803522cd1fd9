package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestDayConversions(t *testing.T) {
	if Date(2015, 1, 1) != 0 {
		t.Errorf("epoch day = %d", Date(2015, 1, 1))
	}
	if Date(2015, 1, 2) != 1 {
		t.Errorf("day 1 = %d", Date(2015, 1, 2))
	}
	if GTLDStart.String() != "2015-03-01" {
		t.Errorf("GTLDStart = %s", GTLDStart)
	}
	if End.String() != "2016-12-31" {
		t.Errorf("End = %s", End)
	}
	if CloudflareUniversalDNSSEC.String() != "2015-11-11" {
		t.Errorf("Cloudflare day = %s", CloudflareUniversalDNSSEC)
	}
	if NLStart.String() != "2016-02-09" || SEStart.String() != "2016-06-07" {
		t.Errorf("ccTLD starts: %s %s", NLStart, SEStart)
	}
	if Never.String() != "never" {
		t.Error("Never string")
	}
}

func TestRoundTripProperty(t *testing.T) {
	f := func(n uint16) bool {
		d := Day(n)
		return FromTime(d.Time()) == d
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParse(t *testing.T) {
	for in, want := range map[string]Day{
		"2016-06-07": SEStart,
		"2015-01-01": 0,
		"1900-01-01": Date(1900, 1, 1),
		"2300-01-01": Date(2300, 1, 1),
		// Never stands for an error. Dates a Day cannot represent are
		// errors, not the day they saturate to.
		"9999-12-31": Never, "2400-01-01": Never, "2500-01-01": Never, "1700-01-01": Never,
		"junk": Never,
	} {
		d, err := Parse(in)
		if (err == nil) != (want != Never) || (err == nil && d != want) {
			t.Errorf("Parse(%q) = %v, %v; want %v", in, d, err, want)
		}
	}
}

func TestFromTimeTruncates(t *testing.T) {
	noon := time.Date(2016, 6, 7, 12, 34, 56, 0, time.UTC)
	if FromTime(noon) != SEStart {
		t.Errorf("FromTime(noon) = %v", FromTime(noon))
	}
}
