package colstore

import (
	"bytes"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// planFromRows lays rows out as a Plan the way a generator would: one run
// per maximal stretch of rows sharing operator, TLD and registrar.
func planFromRows(rows []Domain) (*Plan, [][]Domain) {
	var runs [][]Domain
	for i := range rows {
		d := rows[i]
		if n := len(runs); n > 0 {
			if p := runs[n-1][0]; p.Operator == d.Operator && p.TLD == d.TLD && p.Registrar == d.Registrar {
				runs[n-1] = append(runs[n-1], d)
				continue
			}
		}
		runs = append(runs, []Domain{d})
	}
	p := NewPlan(len(runs))
	for _, run := range runs {
		nameBytes := uint64(0)
		for _, d := range run {
			nameBytes += uint64(len(d.Name))
		}
		p.Reserve(len(run), nameBytes, run[0].Operator, run[0].NSHost, run[0].TLD, run[0].Registrar)
	}
	return p, runs
}

func fillRun(w *RowWriter, run []Domain) {
	for _, d := range run {
		w.Add([]byte(d.Name), d.Created, d.KeyDay, d.DSDay, d.BrokenDS, d.ExpiredSig)
	}
	w.Close()
}

// TestPlanMatchesBuilder: runs filled in place, concurrently and in a
// scrambled order, serialize to the bytes of a sequential Builder fed the
// same rows — the property that lets world generation skip the merge.
func TestPlanMatchesBuilder(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	rows := randomDomains(rng, 600)
	for i := 1; i < len(rows); i++ {
		if rng.Intn(5) != 0 { // stretches of about five rows per cohort
			rows[i].Operator, rows[i].NSHost = rows[i-1].Operator, rows[i-1].NSHost
			rows[i].TLD, rows[i].Registrar = rows[i-1].TLD, rows[i-1].Registrar
		}
	}
	b := NewBuilder(len(rows))
	for _, d := range rows {
		b.Add(d)
	}
	want := saveBytes(t, b.Build())

	p, runs := planFromRows(rows)
	var wg sync.WaitGroup
	for _, id := range rng.Perm(len(runs)) {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			w := p.Writer(id)
			fillRun(&w, runs[id])
		}(id)
	}
	wg.Wait()
	x, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := saveBytes(t, x); !bytes.Equal(got, want) {
		t.Fatal("planned fill serialized differently from the sequential builder")
	}
}

// TestPlanEmptyRunInternsNothing: a run of no rows must not claim an
// intern ID, or every later ID would shift against the sequential order.
func TestPlanEmptyRunInternsNothing(t *testing.T) {
	p := NewPlan(2)
	p.Reserve(0, 0, "ghost.example", "ns1.ghost.example", "zz", "Ghost")
	id := p.Reserve(1, 5, "op.example", "ns1.op.example", "com", "")
	w := p.Writer(id)
	w.Add([]byte("a.com"), 0, 1, 2, false, false)
	w.Close()
	x, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if x.Operators() != 1 || len(x.TLDs()) != 1 {
		t.Fatalf("empty run interned: %d operators, TLDs %v", x.Operators(), x.TLDs())
	}
	if got := x.Row(0); got.Name != "a.com" || got.Operator != "op.example" {
		t.Fatalf("row 0 = %+v", got)
	}
	if empty, err := NewPlan(0).Build(); err != nil || empty.Len() != 0 {
		t.Fatalf("plan of nothing: %v, %v", empty, err)
	}
}

// TestPlanRejectsMisfilledRun: a run that comes out shorter, longer or
// with other name bytes than reserved fails the build, and an overflowing
// row never reaches the neighbouring run's memory.
func TestPlanRejectsMisfilledRun(t *testing.T) {
	cases := []struct {
		what  string
		rows  []string
		close bool
	}{
		{"a row short", []string{"aa.com"}, true},
		{"a row over", []string{"aa.com", "bb.com", "cc.com"}, true},
		{"name bytes short", []string{"aa.com", "b.com"}, true},
		{"name bytes over", []string{"aa.com", "bbb.com"}, true},
		{"never closed", []string{"aa.com", "bb.com"}, false},
	}
	for _, tc := range cases {
		p := NewPlan(2)
		first := p.Reserve(2, 12, "op.example", "ns1.op.example", "com", "")
		second := p.Reserve(1, 6, "other.example", "ns1.other.example", "com", "")
		w2 := p.Writer(second)
		w2.Add([]byte("zz.com"), 0, 0, 0, false, false)
		w2.Close()
		w := p.Writer(first)
		for _, name := range tc.rows {
			w.Add([]byte(name), 0, 0, 0, false, false)
		}
		if tc.close {
			w.Close()
		}
		if x, err := p.Build(); err == nil {
			t.Errorf("%s: Build accepted the plan (%d rows)", tc.what, x.Len())
		} else if !strings.Contains(err.Error(), "planned run 0") {
			t.Errorf("%s: error does not name the run: %v", tc.what, err)
		}
		if got := string(p.idx.nameBlob[12:]); got != "zz.com" {
			t.Errorf("%s: neighbouring run's name bytes are now %q", tc.what, got)
		}
	}
}

// TestPlanRefusesReserveAfterWriter: the first Writer makes the columns at
// the plan's size, so a later Reserve could only describe rows past their
// end, and moving the runs would strand the writers already handed out. It
// panics, naming the misuse, before it changes the plan.
func TestPlanRefusesReserveAfterWriter(t *testing.T) {
	p := NewPlan(1)
	id := p.Reserve(1, 5, "op.example", "ns1.op.example", "com", "")
	w := p.Writer(id)
	func() {
		defer func() {
			if msg, _ := recover().(string); !strings.Contains(msg, "Reserve after Plan.Writer") {
				t.Errorf("Reserve after Writer: recovered %q, want a panic naming the misuse", msg)
			}
		}()
		p.Reserve(1, 5, "late.example", "ns1.late.example", "com", "")
	}()
	w.Add([]byte("a.com"), 0, 1, 2, false, false)
	w.Close()
	x, err := p.Build()
	if err != nil {
		t.Fatal(err)
	}
	if x.Len() != 1 || x.Operators() != 1 {
		t.Fatalf("the refused Reserve changed the plan: %d rows, %d operators", x.Len(), x.Operators())
	}
}
