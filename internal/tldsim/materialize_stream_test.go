package tldsim

import (
	"context"
	"reflect"
	"slices"
	"testing"

	"securepki.org/registrarsec/internal/dnswire"
	"securepki.org/registrarsec/internal/faultnet"
	"securepki.org/registrarsec/internal/simtime"
)

func streamTestWorld(t *testing.T) *World {
	t.Helper()
	w, err := Build(WorldConfig{Scale: 1.0 / 20000, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSampleSourceMatchesSample(t *testing.T) {
	w := streamTestWorld(t)
	for _, n := range []int{1, 10, 500, w.Len(), w.Len() + 100} {
		src := w.SampleSource(n, 42)
		want := w.Sample(n, 42)
		if src.Len() != len(want) {
			t.Fatalf("n=%d: SampleSource.Len() = %d, Sample returned %d", n, src.Len(), len(want))
		}
		for i := range want {
			if got := src.DomainAt(i); !reflect.DeepEqual(got, want[i]) {
				t.Fatalf("n=%d: DomainAt(%d) = %+v, Sample[%d] = %+v", n, i, got, i, want[i])
			}
			d, tld := src.Target(i)
			if d != want[i].Name || tld != want[i].TLD {
				t.Fatalf("n=%d: Target(%d) = (%s, %s), want (%s, %s)", n, i, d, tld, want[i].Name, want[i].TLD)
			}
		}
	}
}

func TestWorldTargetMatchesDomainAt(t *testing.T) {
	w := streamTestWorld(t)
	for i := 0; i < w.Len(); i += 97 {
		d := w.DomainAt(i)
		name, tld := w.Target(i)
		if name != d.Name || tld != d.TLD {
			t.Fatalf("Target(%d) = (%s, %s), DomainAt = (%s, %s)", i, name, tld, d.Name, d.TLD)
		}
	}
}

// TestLossyOperatorsSourceMatchesSlice: the selection is frac of the
// distinct operators in the sample's domain slice, sorted, with one loss
// rule per chosen operator's nameserver, and the same seed picks the same
// set.
func TestLossyOperatorsSourceMatchesSlice(t *testing.T) {
	w := streamTestWorld(t)
	src := w.SampleSource(400, 3)
	operators := map[string]bool{}
	for _, d := range Domains(src) {
		operators[d.Operator] = true
	}
	rules, chosen := LossyOperatorsSource(src, 0.25, 0.5, 99)
	if want := int(float64(len(operators)) * 0.25); len(chosen) != want || want == 0 {
		t.Fatalf("chose %d of %d operators, want %d (and more than none)", len(chosen), len(operators), want)
	}
	if !slices.IsSorted(chosen) || len(rules) != len(chosen) {
		t.Fatalf("%d rules for the chosen operators %v", len(rules), chosen)
	}
	for i, op := range chosen {
		if !operators[op] {
			t.Errorf("chose %s, which runs none of the sample's domains", op)
		}
		if want := (faultnet.Rule{Pattern: NSHostOf(op), Loss: 0.5}); !reflect.DeepEqual(rules[i], want) {
			t.Errorf("rule %d = %+v, want %+v", i, rules[i], want)
		}
	}
	againRules, againChosen := LossyOperatorsSource(src, 0.25, 0.5, 99)
	if !reflect.DeepEqual(againChosen, chosen) || !reflect.DeepEqual(againRules, rules) {
		t.Error("the same seed picked another selection")
	}
	if _, other := LossyOperatorsSource(src, 0.25, 0.5, 100); reflect.DeepEqual(other, chosen) {
		t.Error("another seed picked the same selection")
	}
}

// TestStreamMaterializerChunkAnswers verifies that a chunked
// materialization answers queries about its chunk's domains with the same
// DNSSEC-relevant shape the whole-day materialization produces: same
// rcode, same answer types per (name, qtype). Full record-level identity
// is impossible (each materialization generates fresh keys), but the
// measurement outcome per domain — which is what the scanner records —
// depends only on the answer shape.
func TestStreamMaterializerChunkAnswers(t *testing.T) {
	w := streamTestWorld(t)
	src := w.SampleSource(64, 5)
	day := simtime.End

	whole, err := Materialize(day, Domains(src))
	if err != nil {
		t.Fatal(err)
	}
	sm := NewStreamMaterializer(day, src)
	if len(sm.TLDServers) == 0 {
		t.Fatal("StreamMaterializer derived no TLD servers")
	}
	for tld, ns := range whole.TLDServers {
		if sm.TLDServers[tld] != ns {
			t.Fatalf("TLD %s: stream server %q, whole-day %q", tld, sm.TLDServers[tld], ns)
		}
	}

	ctx := context.Background()
	if _, err := sm.Exchange(ctx, "a.root-servers.net", dnswire.NewQuery(1, "com", dnswire.TypeNS)); err == nil {
		t.Fatal("Exchange before Prepare should error")
	}

	const chunk = 17
	for lo := 0; lo < src.Len(); lo += chunk {
		hi := lo + chunk
		if hi > src.Len() {
			hi = src.Len()
		}
		if err := sm.Prepare(ctx, lo, hi); err != nil {
			t.Fatal(err)
		}
		for i := lo; i < hi; i++ {
			d := src.DomainAt(i)
			ns := sm.TLDServers[d.TLD]
			for _, qtype := range []dnswire.Type{dnswire.TypeDS, dnswire.TypeNS} {
				q := dnswire.NewQuery(1, d.Name, qtype)
				got, err := sm.Exchange(ctx, ns, q)
				if err != nil {
					t.Fatalf("chunk query %s %d: %v", d.Name, qtype, err)
				}
				want, err := whole.Net.Exchange(ctx, ns, dnswire.NewQuery(1, d.Name, qtype))
				if err != nil {
					t.Fatalf("whole-day query %s %d: %v", d.Name, qtype, err)
				}
				if got.RCode != want.RCode {
					t.Fatalf("%s qtype %d: chunk rcode %d, whole-day %d", d.Name, qtype, got.RCode, want.RCode)
				}
				if gc, wc := typeCounts(got), typeCounts(want); !reflect.DeepEqual(gc, wc) {
					t.Fatalf("%s qtype %d: chunk answer types %v, whole-day %v", d.Name, qtype, gc, wc)
				}
			}
		}
	}
}

// typeCounts tallies answer-section record types — the shape the scanner's
// presence checks (has DS? has DNSKEY? has RRSIG?) depend on.
func typeCounts(m *dnswire.Message) map[dnswire.Type]int {
	out := map[dnswire.Type]int{}
	for _, rr := range m.Answers {
		out[rr.Type]++
	}
	return out
}
