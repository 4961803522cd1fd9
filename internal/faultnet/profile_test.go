package faultnet

import (
	"math"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/simtime"
)

func TestParseProfile(t *testing.T) {
	rules, err := ParseProfile(`
# vantage point behind a lossy path
*.flaky.example  loss=0.2 latency=30ms
ns1.dark.example timeout=1.0   # hard down
*.maint.example  outage=2016-06-01..2016-06-03 servfail=0.5
`)
	if err != nil {
		t.Fatal(err)
	}
	if len(rules) != 3 {
		t.Fatalf("rules: %d", len(rules))
	}
	if r := rules[0]; r.Pattern != "*.flaky.example" || r.Loss != 0.2 || r.Latency != 30*time.Millisecond {
		t.Fatalf("rule 0: %+v", r)
	}
	if r := rules[1]; r.Pattern != "ns1.dark.example" || r.Timeout != 1.0 {
		t.Fatalf("rule 1: %+v", r)
	}
	from, _ := simtime.Parse("2016-06-01")
	to, _ := simtime.Parse("2016-06-03")
	if r := rules[2]; r.OutageFrom != from || r.OutageTo != to || r.ServFail != 0.5 {
		t.Fatalf("rule 2: %+v", r)
	}
}

func TestParseProfileErrors(t *testing.T) {
	cases := []struct{ in, want string }{
		{"*.x loss=1.5", "probability"},
		{"*.x loss=NaN", "probability"},
		{"*.x timeout=nan", "probability"},
		{"*.x loss=nan timeout=0.5", "probability"},
		{"*.x loss=Inf", "probability"},
		{"*.x loss=0.6 servfail=0.5", "sum to"},
		{"*.x timeout=1 badid=0.01", "sum to"},
		{"*.x latency=-3ms", "duration"},
		{"*.x outage=2016-06-05..2016-06-01", "ends before"},
		{"*.x outage=sometime", "FROM..TO"},
		{"*.x bogus=1", "unknown fault key"},
		{"*.x loss", "key=value"},
	}
	for _, tc := range cases {
		if _, err := ParseProfile(tc.in); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("ParseProfile(%q): err %v, want %q", tc.in, err, tc.want)
		}
	}
}

// FuzzParseProfile: the parser never panics, and every rule it accepts
// injects what it states: finite probabilities in [0,1] that sum to at most
// 1, a non-negative latency, an outage that starts no later than it ends.
func FuzzParseProfile(f *testing.F) {
	for _, seed := range []string{
		"# lossy resolver path to one operator\n*.flaky.example  loss=0.2 latency=30ms\n" +
			"ns1.dark.example timeout=1.0\n*.maint.example  outage=2016-06-01..2016-06-03\n",
		"*.maint.example  outage=2016-06-01..2016-06-03 servfail=0.5",
		"* loss=0.1 timeout=0.1 servfail=0.1 refused=0.1 truncate=0.1 badid=0.1",
		"*.x loss=1.5",
		"*.x loss=NaN",
		"*.x latency=-3ms",
		"*.x outage=2016-06-05..2016-06-01",
		"*.x loss",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, text string) {
		rules, err := ParseProfile(text)
		if err != nil {
			return
		}
		for _, r := range rules {
			for _, p := range []float64{r.Loss, r.Timeout, r.ServFail, r.Refused, r.Truncate, r.BadID} {
				if math.IsNaN(p) || p < 0 || p > 1 {
					t.Fatalf("rule %+v: probability %v outside [0,1]", r, p)
				}
			}
			if sum := probSum(&r); sum > 1+1e-9 {
				t.Fatalf("rule %+v: probabilities sum to %v", r, sum)
			}
			if r.Latency < 0 {
				t.Fatalf("rule %+v: negative latency", r)
			}
			if r.OutageTo < r.OutageFrom {
				t.Fatalf("rule %+v: outage ends before it starts", r)
			}
		}
	})
}
