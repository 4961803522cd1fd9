package tldsim

import (
	"fmt"
	"math"
	"math/rand"
	randv2 "math/rand/v2"
	"runtime"
	"strconv"
	"sync"

	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// WorldConfig parameterizes world generation.
type WorldConfig struct {
	// Scale multiplies every population (default 1/1000 — .com becomes
	// ~118k domains instead of 118M). Percentages are scale-invariant.
	Scale float64
	// Seed drives all sampling; same seed → same world. The build runs
	// on GOMAXPROCS workers, and its world is byte-identical at any
	// count.
	Seed int64
}

// tailOperators is the number of anonymous tail operators per TLD, chosen
// so the total operator count is ~10^4, matching the x-axis of Figure 3.
// Every world is generated over the paper's measurement window,
// simtime.GTLDStart to simtime.End.
var tailOperators = map[string]int{
	"com": 6000, "net": 1300, "org": 1100, "nl": 1000, "se": 600,
}

func (c *WorldConfig) fill() {
	if c.Scale == 0 {
		c.Scale = 1.0 / 1000
	}
}

// DomainState is one simulated domain's full history, from which any day's
// DNS state follows.
type DomainState struct {
	Name      string
	TLD       string
	Operator  string
	Registrar string
	// Created is the registration day (may precede the window).
	Created simtime.Day
	// KeyDay is when DNSKEYs first appear (simtime.Never if never).
	KeyDay simtime.Day
	// DSDay is when the DS reaches the registry (simtime.Never if never).
	DSDay simtime.Day
	// BrokenDS marks a DS that matches no served key.
	BrokenDS bool
	// ExpiredSig marks a zone whose RRSIGs are past their validity window.
	ExpiredSig bool
}

// RecordAt projects the domain onto one measurement day. The NS-host
// slice is freshly allocated; bulk projections go through the index
// (Index().Snapshot), which shares one slice per operator.
func (d *DomainState) RecordAt(day simtime.Day) dataset.Record {
	return d.recordAt(day, []string{nsFor(d.Operator)})
}

func (d *DomainState) recordAt(day simtime.Day, nsHosts []string) dataset.Record {
	hasKey := d.KeyDay <= day
	hasDS := d.DSDay <= day
	return dataset.Record{
		Domain:     d.Name,
		TLD:        d.TLD,
		NSHosts:    nsHosts,
		Operator:   d.Operator,
		HasDNSKEY:  hasKey,
		HasRRSIG:   hasKey,
		HasDS:      hasDS,
		ChainValid: hasKey && hasDS && !d.BrokenDS && !d.ExpiredSig,
	}
}

// World is a generated ecosystem population, held as the columnar index:
// generation fills the index's columns directly, a load maps them from
// disk, and every query (snapshot, series, aggregation, sample) is served
// from them.
type World struct {
	Config WorldConfig
	// Cohorts are the resolved (scaled) cohorts, named then tail.
	Cohorts []Cohort

	idx *colstore.Index
}

// Index returns the world's columnar analytics engine.
func (w *World) Index() *colstore.Index { return w.idx }

// Len returns the population size.
func (w *World) Len() int { return w.idx.Len() }

// DomainAt projects one domain out of the population (a column gather).
func (w *World) DomainAt(i int) DomainState {
	d := w.idx.Row(i)
	return DomainState{
		Name:       d.Name,
		TLD:        d.TLD,
		Operator:   d.Operator,
		Registrar:  d.Registrar,
		Created:    d.Created,
		KeyDay:     d.KeyDay,
		DSDay:      d.DSDay,
		BrokenDS:   d.BrokenDS,
		ExpiredSig: d.ExpiredSig,
	}
}

// tailDSByTLD encodes how the anonymous tail handles DS records: gTLD tail
// operators upload DS for under half of their signed domains (the paper
// finds ~30% of DNSKEY domains lack DS, concentrated in a few operators,
// plus pervasive non-validation); .nl/.se tails are incentive-audited and
// mostly complete.
var tailDSByTLD = map[string]DSSpec{
	"com": {Mode: DSWithKey, Prob: 0.62, BrokenFrac: 0.05},
	"net": {Mode: DSWithKey, Prob: 0.62, BrokenFrac: 0.05},
	"org": {Mode: DSWithKey, Prob: 0.62, BrokenFrac: 0.05},
	"nl":  {Mode: DSWithKey, Prob: 0.95, BrokenFrac: 0.015},
	"se":  {Mode: DSWithKey, Prob: 0.94, BrokenFrac: 0.015},
}

// planCohorts resolves the full cohort list for a config: named cohorts
// from the catalogue plus a power-law tail per TLD calibrated so each TLD
// hits its Table 1 size and DNSKEY percentage. Deterministic and cheap —
// no per-domain sampling happens here. The five tails are sized and named
// at once, a goroutine each: they depend on the named cohorts alone.
func planCohorts(cfg WorldConfig) ([]Cohort, error) {
	named := NamedCohorts()
	// Scale the named cohorts and account per-TLD totals.
	namedDomains := make(map[string]int)    // tld -> scaled named population
	namedKeyEnd := make(map[string]float64) // tld -> expected DNSKEY count at window end
	tailOps := 0
	for _, tld := range AllTLDs {
		tailOps += tailOperators[tld]
	}
	cohorts := make([]Cohort, 0, len(named)+tailOps)
	for _, c := range named {
		c.Domains = int(math.Round(float64(c.Domains) * cfg.Scale))
		if c.Domains == 0 {
			continue
		}
		namedDomains[c.TLD] += c.Domains
		namedKeyEnd[c.TLD] += float64(c.Domains) * c.Key.EndFrac
		cohorts = append(cohorts, c)
	}

	// Tail per TLD: fill the population gap with power-law-sized anonymous
	// operators whose DNSKEY fraction closes the gap to the Table 1
	// percentage.
	tails := make([]tailPlan, len(AllTLDs))
	for t, tld := range AllTLDs {
		total := int(math.Round(float64(TLDTotals[tld]) * cfg.Scale))
		tailTotal := total - namedDomains[tld]
		if tailTotal <= 0 {
			return nil, fmt.Errorf("tldsim: named cohorts exceed .%s population (%d > %d)", tld, namedDomains[tld], total)
		}
		targetKey := float64(total) * TLDKeyPct[tld] / 100
		tailKeyFrac := (targetKey - namedKeyEnd[tld]) / float64(tailTotal)
		if tailKeyFrac < 0 {
			tailKeyFrac = 0
		}
		if tailKeyFrac > 1 {
			tailKeyFrac = 1
		}
		tails[t] = tailPlan{tld: tld, domains: tailTotal, keyFrac: tailKeyFrac}
	}
	var wg sync.WaitGroup
	for t := range tails {
		wg.Add(1)
		go func() {
			defer wg.Done()
			tails[t].size()
		}()
	}
	wg.Wait()
	for _, tp := range tails {
		ds := tailDSByTLD[tp.tld]
		start := 0
		for i, size := range tp.sizes {
			end := tp.ends[i]
			if size > 0 {
				cohorts = append(cohorts, Cohort{
					Operator: tp.names[start:end],
					TLD:      tp.tld,
					Domains:  size,
					// Tail adoption grows modestly across the window (the
					// paper: "rare ... but growing").
					Key: Linear(tp.keyFrac*0.8, tp.keyFrac),
					DS:  ds,
					// Small self-hosted operators let signatures lapse.
					ExpiredSigFrac: 0.03,
				})
			}
			start = end
		}
	}
	return cohorts, nil
}

// tailPlan is one TLD's anonymous tail: its population and DNSKEY
// fraction, then, once sized, its operators' sizes and names, the i-th
// name being names[ends[i-1]:ends[i]].
type tailPlan struct {
	tld     string
	domains int
	keyFrac float64
	sizes   []int
	names   string
	ends    []int
}

// size spreads the tail over the TLD's tail operators and names them all,
// in one string.
func (tp *tailPlan) size() {
	tp.sizes = powerLawSizes(tailOperators[tp.tld], tp.domains)
	names := make([]byte, 0, len(tp.sizes)*(len("tail0000.-hosting.example")+len(tp.tld)))
	tp.ends = make([]int, len(tp.sizes))
	for i := range tp.sizes {
		names = appendTailOperator(names, i, tp.tld)
		tp.ends[i] = len(names)
	}
	tp.names = string(names)
}

// appendTailOperator appends the name of a TLD's i-th tail operator,
// "tail<i, zero-padded to 4>.<tld>-hosting.example".
func appendTailOperator(dst []byte, i int, tld string) []byte {
	dst = append(dst, "tail"...)
	for limit := 1000; limit > i && limit > 1; limit /= 10 {
		dst = append(dst, '0')
	}
	dst = strconv.AppendInt(dst, int64(i), 10)
	dst = append(dst, '.')
	dst = append(dst, tld...)
	return append(dst, "-hosting.example"...)
}

// Build generates the world: the cohort plan fixes where every row goes,
// and cohorts are sampled in parallel straight into the index's columns.
// The result is byte-identical for a given seed regardless of worker
// count.
func Build(cfg WorldConfig) (*World, error) {
	cfg.fill()
	cohorts, err := planCohorts(cfg)
	if err != nil {
		return nil, err
	}
	return buildWorld(cfg, cohorts, cfg.Seed)
}

// buildWorld generates the population of an already scaled cohort list.
func buildWorld(cfg WorldConfig, cohorts []Cohort, baseSeed int64) (*World, error) {
	idx, err := buildIndexStreaming(&cfg, cohorts, baseSeed)
	if err != nil {
		return nil, err
	}
	return &World{Config: cfg, Cohorts: cohorts, idx: idx}, nil
}

// BuildCustom generates a world from an explicit cohort list
// (no named catalogue, no tail) — for ablations and focused experiments.
func BuildCustom(cfg WorldConfig, cohorts []Cohort) (*World, error) {
	cfg.fill()
	scaled := make([]Cohort, 0, len(cohorts))
	for _, c := range cohorts {
		c.Domains = int(math.Round(float64(c.Domains) * cfg.Scale))
		if c.Domains > 0 {
			scaled = append(scaled, c)
		}
	}
	return buildWorld(cfg, scaled, cfg.Seed)
}

// cohortSeed derives cohort ci's independent RNG stream from the base
// seed via a splitmix64-style mix: adjacent cohorts get decorrelated
// streams, and each stream depends only on (base, ci) — not on which
// worker runs it or in what order — which is what makes the parallel
// build deterministic.
func cohortSeed(base int64, ci int) int64 {
	z := uint64(base) + uint64(ci+1)*0x9E3779B97F4A7C15
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z)
}

// stream is the generator's random source: math/rand/v2's PCG (128 bits of
// state, seeded in O(1)) behind the math/rand.Source64 the draw functions
// take. It is part of the world's identity (generatorVersion).
type stream struct{ pcg randv2.PCG }

func newStream(seed int64) *stream {
	s := new(stream)
	s.Seed(seed)
	return s
}

func (s *stream) Seed(seed int64) { s.pcg.Seed(uint64(seed), 0x9E3779B97F4A7C15) }
func (s *stream) Uint64() uint64  { return s.pcg.Uint64() }
func (s *stream) Int63() int64    { return int64(s.pcg.Uint64() >> 1) }

// domainDraw is one domain's sampled history, before naming.
type domainDraw struct {
	created simtime.Day
	keyDay  simtime.Day
	dsDay   simtime.Day
	broken  bool
	expired bool
}

// drawDomain samples one domain's history from its cohort profile. The
// draw order (created, key, DS, expired) is part of the world's identity:
// changing it changes every saved world's bytes.
func drawDomain(rng *rand.Rand, c *Cohort, cfg *WorldConfig) domainDraw {
	// Registrations spread over the three years before the window end;
	// most predate the window start.
	created := simtime.Day(rng.Intn(int(simtime.GTLDStart)+700)) - 700
	keyDay := c.Key.sampleKeyDay(rng, created, simtime.GTLDStart, simtime.End)
	dsDay, broken := c.DS.sampleDS(rng, keyDay, created)
	expired := keyDay != simtime.Never && c.ExpiredSigFrac > 0 &&
		rng.Float64() < c.ExpiredSigFrac
	return domainDraw{created: created, keyDay: keyDay, dsDay: dsDay, broken: broken, expired: expired}
}

// appendDomainName appends "d<idx, zero-padded to 7><suffix>", where suffix
// is the cohort's "-<slug>.<tld>" fragment — fmt.Sprintf("d%07d%s", idx,
// suffix) without the formatting overhead or an allocation per name.
func appendDomainName(dst []byte, idx int, suffix []byte) []byte {
	dst = append(dst, 'd')
	for limit := 1_000_000; limit > idx && limit > 1; limit /= 10 {
		dst = append(dst, '0')
	}
	dst = strconv.AppendInt(dst, int64(idx), 10)
	return append(dst, suffix...)
}

// namesLen is the exact byte count of the names appendDomainName gives
// rows [start, start+n) under a suffix of suffixLen bytes: the index
// takes seven digits below 10^7 and its own width from there on.
func namesLen(start, n, suffixLen int) uint64 {
	total := uint64(0)
	for width, limit := 7, 10_000_000; n > 0; width, limit = width+1, limit*10 {
		if start >= limit {
			continue
		}
		run := min(n, limit-start)
		total += uint64(run) * uint64(1+width+suffixLen)
		start, n = start+run, n-run
	}
	return total
}

// appendCohortSuffix appends the per-cohort name fragment shared by every
// domain of the cohort: "-<slug>.<tld>", the slug being the operator name
// shortened to its first twelve domain-label-safe characters.
func appendCohortSuffix(dst []byte, c *Cohort) []byte {
	dst = append(dst, '-')
	for i, n := 0, 0; i < len(c.Operator) && n < 12; i++ {
		if ch := c.Operator[i]; ch >= 'a' && ch <= 'z' || ch >= '0' && ch <= '9' {
			dst = append(dst, ch)
			n++
		}
	}
	dst = append(dst, '.')
	return append(dst, c.TLD...)
}

// fillChunkDomains is the target row count per unit of generation work.
// The power-law tail yields tens of thousands of cohorts of a handful of
// domains each; handing them out one by one would make the hand-off
// dominate the build at small scale, so contiguous cohorts are batched
// into chunks of roughly this many domains.
const fillChunkDomains = 4096

// buildIndexStreaming is the parallel plan-then-fill generation pipeline.
// The cohort list fixes everything about the index's layout before a
// single domain is drawn: cohort ci's rows start at the prefix sum of the
// cohort sizes, its names are numbered from there and so have a known
// total length, and operators, TLDs and registrars get their intern IDs
// in cohort order. A worker pool then fills the cohorts' disjoint row and
// name-byte ranges of the final columns in place, cohort ci always drawing
// from cohortSeed(baseSeed, ci). No worker's output is ever moved or
// renumbered, so the index — and its serialized bytes — are identical for
// any worker count; the pool has GOMAXPROCS workers.
func buildIndexStreaming(cfg *WorldConfig, cohorts []Cohort, baseSeed int64) (*colstore.Index, error) {
	workers := runtime.GOMAXPROCS(0)
	plan := colstore.NewPlan(len(cohorts))
	starts := make([]int, len(cohorts)+1)
	hosts := nsHosts(cohorts)
	var suffix []byte
	for ci := range cohorts {
		c := &cohorts[ci]
		starts[ci+1] = starts[ci] + c.Domains
		suffix = appendCohortSuffix(suffix[:0], c)
		plan.Reserve(c.Domains, namesLen(starts[ci], c.Domains, len(suffix)),
			c.Operator, hosts[ci], c.TLD, c.Registrar)
	}
	// Chunk boundaries: close a chunk once it has accumulated the target
	// domain count. chunks[k]..chunks[k+1] is a half-open cohort range.
	chunks := []int{0}
	for ci := range cohorts {
		if starts[ci+1]-starts[chunks[len(chunks)-1]] >= fillChunkDomains {
			chunks = append(chunks, ci+1)
		}
	}
	if chunks[len(chunks)-1] != len(cohorts) {
		chunks = append(chunks, len(cohorts))
	}
	jobs := make(chan int)
	var wg sync.WaitGroup
	for k := 0; k < workers; k++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := newCohortFiller(cfg)
			for job := range jobs {
				for ci := chunks[job]; ci < chunks[job+1]; ci++ {
					w := plan.Writer(ci)
					f.fill(&w, &cohorts[ci], cohortSeed(baseSeed, ci), starts[ci])
				}
			}
		}()
	}
	for job := 0; job+1 < len(chunks); job++ {
		jobs <- job
	}
	close(jobs)
	wg.Wait()
	return plan.Build()
}

// nsHosts returns nsFor of every cohort's operator, all of them cut from
// one string.
func nsHosts(cohorts []Cohort) []string {
	size := 0
	for ci := range cohorts {
		size += len(nsPrefix) + len(cohorts[ci].Operator)
	}
	buf := make([]byte, 0, size)
	ends := make([]int, len(cohorts))
	for ci := range cohorts {
		buf = append(append(buf, nsPrefix...), cohorts[ci].Operator...)
		ends[ci] = len(buf)
	}
	all := string(buf)
	hosts := make([]string, len(cohorts))
	start := 0
	for ci, end := range ends {
		hosts[ci], start = all[start:end], end
	}
	return hosts
}

// cohortFiller is one worker's reusable state: its RNG is re-seeded per
// cohort — the same stream a fresh newStream(seed) yields, at the cost of
// two stores — and its suffix and name buffers are recycled, so filling a
// cohort allocates nothing.
type cohortFiller struct {
	cfg    *WorldConfig
	rng    *rand.Rand
	suffix []byte
	name   nameCounter
}

func newCohortFiller(cfg *WorldConfig) *cohortFiller {
	return &cohortFiller{cfg: cfg, rng: rand.New(newStream(0))}
}

// fill samples one cohort into its reserved rows from its own RNG stream.
func (f *cohortFiller) fill(w *colstore.RowWriter, c *Cohort, seed int64, nameStart int) {
	f.rng.Seed(seed)
	f.suffix = appendCohortSuffix(f.suffix[:0], c)
	f.name.start(nameStart, f.suffix)
	for i := 0; i < c.Domains; i++ {
		if i > 0 {
			f.name.next(f.suffix)
		}
		dr := drawDomain(f.rng, c, f.cfg)
		w.Add(f.name.buf, dr.created, dr.keyDay, dr.dsDay, dr.broken, dr.expired)
	}
	w.Close()
}

// nameCounter holds one domain name, appendDomainName's "d<index><suffix>",
// and steps its index in place: a name costs the digits that change, not
// a formatting of the whole index.
type nameCounter struct {
	buf    []byte
	idx    int
	digits int // the index's width: 7 below 10^7, its own from there on
}

// start sets the name to index idx's.
func (c *nameCounter) start(idx int, suffix []byte) {
	c.buf = appendDomainName(c.buf[:0], idx, suffix)
	c.idx, c.digits = idx, len(c.buf)-1-len(suffix)
}

// next steps the name to the next index's.
func (c *nameCounter) next(suffix []byte) {
	c.idx++
	for i := c.digits; i > 0; i-- {
		if c.buf[i] != '9' {
			c.buf[i]++
			return
		}
		c.buf[i] = '0'
	}
	// Past all nines the index outgrows its width, as namesLen counts it.
	c.start(c.idx, suffix)
}

// powerLawSizes distributes total domains over k operators with a power-law
// profile (exponent solved so the largest operator stays moderate), largest
// first. The distribution shape drives the long tail of Figure 3.
func powerLawSizes(k, total int) []int {
	if k <= 0 {
		k = 1
	}
	if k > total {
		k = total
	}
	// Find s such that sizes c*i^-s sum to the total with a head size of
	// about total/20 (keeps tail operators below the named ones). i^-s is
	// exp(-s ln i), so the logarithms are taken once, for solve and weights.
	head := float64(total) / 20
	if head < 1 {
		head = 1
	}
	weights := make([]float64, k)
	for i := range weights {
		weights[i] = math.Log(float64(i + 1))
	}
	s := solveExponent(weights, float64(total)/head)
	sum := 0.0
	for i, ln := range weights {
		weights[i] = math.Exp(-s * ln)
		sum += weights[i]
	}
	sizes := make([]int, k)
	assigned := 0
	for i := range sizes {
		sizes[i] = int(float64(total) * weights[i] / sum)
		assigned += sizes[i]
	}
	// Distribute the rounding remainder over the smallest operators so
	// everyone has at least one domain where possible.
	for i := 0; assigned < total; i = (i + 1) % k {
		sizes[k-1-i]++
		assigned++
	}
	return sizes
}

// solveExponent finds s in [0, 3] with sum(i^-s)/1^-s == ratio, given
// lnI[i-1] = ln i: the ratio of total mass to head mass determines the
// tail flatness. The logarithm of the sum is convex and decreasing in s,
// so Newton's iteration on it from s = 0 climbs to the root without
// overshooting, and ends at the first step that no longer moves s.
func solveExponent(lnI []float64, ratio float64) float64 {
	s := 0.0
	for {
		sum, slope := 0.0, 0.0
		for _, ln := range lnI {
			w := math.Exp(-s * ln)
			sum += w
			slope += ln * w
		}
		next := math.Min(s+math.Log(sum/ratio)*sum/slope, 3)
		if !(next > s) {
			return s
		}
		s = next
	}
}
