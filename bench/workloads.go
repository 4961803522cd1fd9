package main

import (
	"fmt"
	"time"

	"securepki.org/registrarsec/internal/tldsim"
)

// profile is one workload: the whole pipeline with one input profile. Sizes
// are for the default 12-second run and scale with -seconds (see sized).
type profile struct {
	Name string
	Why  string

	// World.
	Divisor  float64
	Scenario tldsim.Scenario

	// Serve stage: ServeDomains sampled domains, apex and www. of each asked
	// for NS, DS, SOA and A; DORatio of the queries set the DO bit.
	ServeDomains int
	DORatio      float64
	// CacheEntries sizes the response cache (0 = the server's 256k default).
	CacheEntries int
	// NegativeNames, when positive, makes half the traffic queries for this
	// many distinct names that do not exist, all with DO set.
	NegativeNames int
	// MutationsPerSec flips delegation NS RRsets beside the reads.
	MutationsPerSec int

	// Sweep stage. Days scan days are spread evenly over the last DaySpan
	// month-ends of the study window (0 = all 21, the paper's shape).
	Days        int
	DaySpan     int
	Targets     int
	Chunk       int
	SpillBudget int64
	FaultFrac   float64
	FaultLoss   float64
	Cache       bool
	Dedup       bool
	Checkpoint  bool

	// Observatory stages. ReadsDuringIngest runs the read window while
	// sections 2..n are appended; RestartAfter cancels the daemon once that
	// many sections are committed and resumes with a fresh one.
	ReadsDuringIngest bool
	RestartAfter      int
	ReportMonths      int

	// Windows, filled by sized.
	ServeWarm    time.Duration
	ServeWindow  time.Duration // the measured closed-loop window
	OpenWindow   time.Duration // traced run only
	ReadWindow   time.Duration
	ProbeBudget  time.Duration // per micro-probe, traced run only
	SetupRepeats int
}

// scanWorkers is the regsec-scan default, the program's own concurrency; the
// faulty sweep is wait-bound without it.
const scanWorkers = 16

var profiles = []profile{
	{
		Name: "paper_clean",
		Why:  "the paper's population (1% signed, cache fits, clean network): sweep time is zone building, wire codec and exchange middleware; serve time is syscalls and cache hits",

		Divisor: 400, ServeDomains: 2000, DORatio: 0.3,
		Days: 6, Targets: 16000, Chunk: 4096, SpillBudget: 2 << 20,
		ReportMonths: 21,
	},
	{
		Name: "signed_wide",
		Why:  "60% of domains signed, DO on every query, delegations mutated beside the reads and reads beside ingest: signing, validation, cache invalidation and publish contention carry the cost",

		Divisor: 400, Scenario: tldsim.GTLDIncentives,
		ServeDomains: 5000, DORatio: 1.0, MutationsPerSec: 50,
		// The scenario's policy change lands on 2015-06-01 and adoption ramps
		// at renewals, so the ~60%-signed world this workload is sized from
		// exists only at the end of the window: sweep the last six month-ends.
		// (Spread over all 21, as first laid out, the swept share was 0.38.)
		Days: 6, DaySpan: 6, Targets: 3500, Chunk: 4096, SpillBudget: 2 << 20,
		ReadsDuringIngest: true, ReportMonths: 21,
	},
	{
		Name: "faulty_durable",
		Why:  "operators of 30% of targets lose 20% of packets, checkpoints on disk, half the queries negative, daemon restart mid-ingest: retries, backoff, fsync, resume carry the cost; CPU savings should not show",

		Divisor: 400, ServeDomains: 2000, DORatio: 0.3,
		CacheEntries: 32768, NegativeNames: 100000,
		Days: 6, Targets: 3500, Chunk: 1024, SpillBudget: 2 << 20,
		FaultFrac: 0.3, FaultLoss: 0.2, Cache: true, Dedup: true, Checkpoint: true,
		RestartAfter: 3, ReportMonths: 21,
	},
	{
		Name: "scale_40",
		Why:  "ten times the population, mmap-loaded, query mix three times the response cache: world load, sample draw, capacity misses and multi-million-row snapshots carry the cost",

		Divisor: 40, ServeDomains: 25000, DORatio: 0.3, CacheEntries: 65536,
		Days: 3, Targets: 16000, Chunk: 4096, SpillBudget: 2 << 20,
		ReportMonths: 2,
	},
}

// shortProfile is the test-sized pass: every stage and every special path of
// the four workloads (scenario world, mutations, negatives, faults,
// checkpoint, restart, concurrent reads) at a size that runs in seconds.
var shortProfile = profile{
	Name: "short",
	Why:  "test-sized pass through every stage and every special path",

	Divisor: 4000, Scenario: tldsim.GTLDIncentives,
	ServeDomains: 150, DORatio: 0.5, CacheEntries: 2048, NegativeNames: 1500, MutationsPerSec: 50,
	Days: 3, Targets: 300, Chunk: 128, SpillBudget: 16 << 10,
	FaultFrac: 0.3, FaultLoss: 0.2, Cache: true, Dedup: true, Checkpoint: true,
	ReadsDuringIngest: true, RestartAfter: 2, ReportMonths: 3,

	ServeWarm: 50 * time.Millisecond, ServeWindow: 300 * time.Millisecond,
	OpenWindow: 200 * time.Millisecond, ReadWindow: 300 * time.Millisecond,
	ProbeBudget: 5 * time.Millisecond, SetupRepeats: 1,
}

func findProfile(name string) (profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return profile{}, fmt.Errorf("unknown workload %q", name)
}

// baseSeconds is the run length the profile sizes are written for.
const baseSeconds = 12

// sized scales a profile to a run of the given length: timed windows take
// fixed shares of it (serve 45%, reads 20%) and the sweep's target count
// scales with it, so the fixed-work stages fill the remainder on this host.
func (p profile) sized(seconds int) profile {
	if p.ServeWindow > 0 {
		return p // already sized (the short profile)
	}
	s := time.Duration(seconds) * time.Second
	p.ServeWarm = s / 24
	p.ServeWindow = s * 45 / 100
	p.OpenWindow = s / 6
	p.ReadWindow = s / 5
	p.ProbeBudget = 40 * time.Millisecond
	// The reported set-up time is the median over repeats; the first runs cold.
	p.SetupRepeats = 3
	p.Targets = max(p.Targets*seconds/baseSeconds, 256)
	return p
}
