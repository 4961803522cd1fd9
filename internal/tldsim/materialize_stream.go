package tldsim

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"sync/atomic"

	"securepki.org/registrarsec/internal/dnsserver"
	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/ecosystem"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/simtime"
)

// The streaming materialization layer: at full-population scale a day's
// signed DNS does not fit in RAM any more than its target list does, so
// sweeps materialize one chunk of the cursor at a time. Determinism makes
// this safe — every domain's zone content is a pure function of its
// DomainState and the day, and TLD/root server names are fixed by
// ecosystem.TLDServerAddr and ecosystem.RootAddr — so a chunked materialization answers every query about
// its chunk's domains exactly as the whole-day materialization would.

// DomainSource is a random-access cursor over a domain population. It
// deliberately includes Target so any DomainSource structurally satisfies
// scan.TargetSource without importing the scan package.
type DomainSource interface {
	// Len is the population size.
	Len() int
	// DomainAt projects domain i as a DomainState (a copy).
	DomainAt(i int) DomainState
	// Target returns domain i's name and TLD without a full projection.
	Target(i int) (domain, tld string)
}

// Target returns domain i's name and TLD — the cheap cursor accessor that
// skips the full DomainState gather.
func (w *World) Target(i int) (domain, tld string) { return w.Index().Target(i) }

// TLDs lists the distinct TLDs present in the population, in index-interning
// order.
func (w *World) TLDs() []string { return w.Index().TLDs() }

var _ DomainSource = (*World)(nil)

// sampleSource is a seeded subset view over a world: position i maps to
// world position idx[i]. It keeps only the index permutation in memory —
// the draw itself is never materialized.
type sampleSource struct {
	w   *World
	idx []int
}

func (s *sampleSource) Len() int                   { return len(s.idx) }
func (s *sampleSource) DomainAt(i int) DomainState { return s.w.DomainAt(s.idx[i]) }
func (s *sampleSource) Target(i int) (string, string) {
	return s.w.Target(s.idx[i])
}

// TLDs delegates to the backing world. The sample may touch fewer TLDs
// than the world; the superset is harmless — consumers use it to size
// per-TLD server tables, and extra entries simply go unqueried.
func (s *sampleSource) TLDs() []string { return s.w.TLDs() }

// SampleSource returns a cursor over n deterministically (seeded) sampled
// domains — the draw Sample materializes, same seed, same domains in the
// same order. The cursor holds only the n drawn row numbers, and drawing
// them costs O(n) time and memory whatever the population.
func (w *World) SampleSource(n int, seed int64) DomainSource {
	if n >= w.Len() {
		return w
	}
	return &sampleSource{w: w, idx: drawSample(rand.New(newStream(seed)), w.Len(), n)}
}

// drawSample returns n distinct rows of [0, total) in uniformly random
// order: the first n steps of a forward Fisher-Yates shuffle of the
// identity permutation, of which only the entries a swap has displaced are
// held — at most one per step. The draw sequence is part of every sweep
// archive's identity (generatorVersion).
func drawSample(rng *rand.Rand, total, n int) []int {
	out := make([]int, n)
	offset := make(map[int]int, n) // entry at position p, minus p: absent while p holds itself
	for i := range out {
		j := i + rng.Intn(total-i)
		out[i] = j + offset[j]
		offset[j] = i + offset[i] - j // position i is final; only j's new entry is read again
	}
	return out
}

// Domains materializes a cursor as a slice — the bridge back to the
// slice-shaped APIs for tests and small worlds.
func Domains(src DomainSource) []DomainState {
	out := make([]DomainState, 0, src.Len())
	for i := 0; i < src.Len(); i++ {
		out = append(out, src.DomainAt(i))
	}
	return out
}

// CollectDomains materializes the cursor span [lo, hi) into dst (reused if
// it has capacity). Intended for chunk-sized spans only.
func CollectDomains(src DomainSource, lo, hi int, dst []DomainState) []DomainState {
	dst = dst[:0]
	for i := lo; i < hi; i++ {
		dst = append(dst, src.DomainAt(i))
	}
	return dst
}

// tldLister is the optional fast path for enumerating a cursor's TLDs
// without a full pass (worlds and sample views implement it).
type tldLister interface{ TLDs() []string }

// StreamMaterializer materializes one chunk of a domain cursor at a time:
// Prepare(ctx, lo, hi) rebuilds the served world for just that span, and
// Exchange routes queries to the current chunk's network. Signing and
// key-generation cost — the dominant cost of materialization — scales with
// the chunk size instead of the day's population.
//
// The TLD server table is computed once up front (server names are a pure
// function of the TLD), so scanner configuration is chunk-independent.
type StreamMaterializer struct {
	day simtime.Day
	src DomainSource
	// TLDServers maps each TLD in the population to its registry server
	// name — the same table a whole-day Materialize would produce.
	TLDServers map[string]string

	cur atomic.Pointer[dnsserver.MemNet]
	buf []DomainState
}

// NewStreamMaterializer builds a chunked materializer for one day over the
// cursor. The TLD table is derived from the cursor's TLDs() fast path when
// available, else from one cheap name/TLD pass over the cursor.
func NewStreamMaterializer(day simtime.Day, src DomainSource) *StreamMaterializer {
	m := &StreamMaterializer{day: day, src: src, TLDServers: make(map[string]string)}
	if tl, ok := src.(tldLister); ok {
		for _, tld := range tl.TLDs() {
			m.TLDServers[tld] = ecosystem.TLDServerAddr(tld)
		}
		return m
	}
	for i := 0; i < src.Len(); i++ {
		_, tld := src.Target(i)
		if _, ok := m.TLDServers[tld]; !ok {
			m.TLDServers[tld] = ecosystem.TLDServerAddr(tld)
		}
	}
	return m
}

// Prepare materializes the cursor span [lo, hi): real signed zones for
// just those domains, served on a fresh in-memory network that replaces
// the previous chunk's. It is the scan.ChunkPrepare for this cursor.
func (m *StreamMaterializer) Prepare(ctx context.Context, lo, hi int) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	m.buf = CollectDomains(m.src, lo, hi, m.buf)
	mat, err := Materialize(m.day, m.buf)
	if err != nil {
		return fmt.Errorf("tldsim: materializing chunk [%d,%d): %w", lo, hi, err)
	}
	m.cur.Store(mat.Net)
	return nil
}

// Exchange routes a query to the currently-prepared chunk's network. It is
// the scanner's Exchange transport: fault middleware stacks above it
// exactly as it stacks above a whole-day Materialized.Net, and faultnet's
// per-question fault hashing depends only on (seed, server, question,
// attempt) — never on which chunk served the answer — so chunked scans see
// the identical fault pattern a whole-day scan would. Querying before the
// first Prepare is an error.
func (m *StreamMaterializer) Exchange(ctx context.Context, server string, q *dnswire.Message) (*dnswire.Message, error) {
	net := m.cur.Load()
	if net == nil {
		return nil, fmt.Errorf("tldsim: StreamMaterializer queried before Prepare")
	}
	return net.Exchange(ctx, server, q)
}

// LossyOperatorsSource deterministically picks frac of the distinct DNS
// operators of the domains src yields and returns faultnet rules injecting
// packet loss on each of their nameservers, plus the chosen operator names
// (sorted). It walks the population once to collect the operators, sorts
// them and takes frac of a seeded shuffle, so the same inputs always
// produce the same flaky set.
func LossyOperatorsSource(src DomainSource, frac, loss float64, seed int64) ([]faultnet.Rule, []string) {
	seen := map[string]bool{}
	var operators []string
	for i := 0; i < src.Len(); i++ {
		d := src.DomainAt(i)
		if !seen[d.Operator] {
			seen[d.Operator] = true
			operators = append(operators, d.Operator)
		}
	}
	sort.Strings(operators)
	n := int(float64(len(operators)) * frac)
	if n > len(operators) {
		n = len(operators)
	}
	rng := rand.New(rand.NewSource(seed))
	rng.Shuffle(len(operators), func(i, j int) {
		operators[i], operators[j] = operators[j], operators[i]
	})
	chosen := append([]string(nil), operators[:n]...)
	sort.Strings(chosen)
	rules := make([]faultnet.Rule, 0, n)
	for _, op := range chosen {
		rules = append(rules, faultnet.Rule{Pattern: nsFor(op), Loss: loss})
	}
	return rules, chosen
}
