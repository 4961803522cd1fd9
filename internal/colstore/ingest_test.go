package colstore

import (
	"bytes"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"testing"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// observedDays renders a domain population into the daily observation
// snapshots a real measurement run would emit, one per sampled day.
func observedDays(domains []Domain, from, to simtime.Day, step int) []*dataset.Snapshot {
	var out []*dataset.Snapshot
	for d := from; d <= to; d += simtime.Day(step) {
		out = append(out, refSnapshot(domains, d))
	}
	return out
}

// ingestAll feeds every snapshot through one ingester.
func ingestAll(t *testing.T, g *Ingester, snaps []*dataset.Snapshot) {
	t.Helper()
	for _, snap := range snaps {
		if _, err := g.AppendDay(snap); err != nil {
			t.Fatal(err)
		}
	}
}

// saveBytes serializes a frozen index with a fixed meta block.
func saveBytes(t *testing.T, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := x.Save(&buf, map[string]string{"source": "ingest-test"}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestIngestMatchesObservedOracle: after ingesting the full observation
// history, the frozen index materializes the same snapshot a direct
// observation of the final day produces — first-observation event days
// and latched flags reconstruct the measured reality.
func TestIngestMatchesObservedOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	domains := randomDomains(rng, 300)
	final := simtime.Day(850)
	snaps := observedDays(domains, 0, final, 1)

	g := NewIngester()
	ingestAll(t, g, snaps)
	x := g.Freeze()

	got := x.Snapshot(final)
	want := refSnapshot(domains, final)
	if len(got.Records) != len(want.Records) {
		t.Fatalf("ingested %d domains, observed %d", len(got.Records), len(want.Records))
	}
	for i := range want.Records {
		if !reflect.DeepEqual(got.Records[i], want.Records[i]) {
			t.Fatalf("record %d:\ngot  %+v\nwant %+v", i, got.Records[i], want.Records[i])
		}
	}
}

// TestIngestCrashResumeByteIdentity is the crash-safety oracle the chaos
// harness leans on: for every possible interruption point, persisting the
// prefix, reloading it, and replaying the remaining sections serializes
// byte-identically to a clean single-pass ingest.
func TestIngestCrashResumeByteIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	domains := randomDomains(rng, 200)
	snaps := observedDays(domains, 0, 840, 120)

	clean := NewIngester()
	ingestAll(t, clean, snaps)
	want := saveBytes(t, clean.Freeze())

	for k := 0; k <= len(snaps); k++ {
		pre := NewIngester()
		ingestAll(t, pre, snaps[:k])
		persisted := saveBytes(t, pre.Freeze())

		loaded, _, err := LoadBytes(persisted)
		if err != nil {
			t.Fatalf("split %d: %v", k, err)
		}
		resumed, err := NewIngesterFromIndex(loaded)
		if err != nil {
			t.Fatalf("split %d: %v", k, err)
		}
		ingestAll(t, resumed, snaps[k:])
		if got := saveBytes(t, resumed.Freeze()); !bytes.Equal(got, want) {
			t.Fatalf("split %d: resumed world diverges from clean single-pass build (%d vs %d bytes)", k, len(got), len(want))
		}
	}
}

// TestIngestResumeFromMmap resumes from an mmap-loaded world file and
// closes the source immediately — the deep copy must not alias the
// released mapping.
func TestIngestResumeFromMmap(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	domains := randomDomains(rng, 150)
	snaps := observedDays(domains, 0, 800, 200)

	pre := NewIngester()
	ingestAll(t, pre, snaps[:2])
	path := filepath.Join(t.TempDir(), "world.rscw")
	if err := pre.Freeze().SaveFile(path, nil); err != nil {
		t.Fatal(err)
	}

	loaded, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := NewIngesterFromIndex(loaded)
	if err != nil {
		t.Fatal(err)
	}
	if err := loaded.Close(); err != nil {
		t.Fatal(err)
	}
	ingestAll(t, resumed, snaps[2:])

	clean := NewIngester()
	ingestAll(t, clean, snaps)
	if got, want := saveBytes(t, resumed.Freeze()), saveBytes(t, clean.Freeze()); !bytes.Equal(got, want) {
		t.Fatal("mmap-resumed world diverges from clean build")
	}
}

// TestIngestIdempotentDay: re-ingesting an already-applied section (the
// at-least-once replay after a crash, or a tailer panic, between ingest
// and commit) is a no-op for the serialized state.
func TestIngestIdempotentDay(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	domains := randomDomains(rng, 120)
	snaps := observedDays(domains, 0, 600, 300)

	once := NewIngester()
	ingestAll(t, once, snaps)
	want := saveBytes(t, once.Freeze())

	twice := NewIngester()
	ingestAll(t, twice, snaps[:1])
	ingestAll(t, twice, snaps) // snaps[0] replayed
	if got := saveBytes(t, twice.Freeze()); !bytes.Equal(got, want) {
		t.Fatal("replaying an ingested day changed the serialized state")
	}
}

// TestIngestSemantics pins the row-level rules: first observation creates
// the row, event days record first sight, flags latch the latest
// measurement, Failed records are skipped.
func TestIngestSemantics(t *testing.T) {
	rec := func(name string, key, ds, valid bool) dataset.Record {
		return dataset.Record{
			Domain: name, TLD: "com", NSHosts: []string{"ns1.op.example"},
			Operator:  "op.example",
			HasDNSKEY: key, HasRRSIG: key, HasDS: ds,
			ChainValid: valid,
		}
	}
	g := NewIngester()

	// Day 10: a.com unsigned, b.com fails measurement.
	skipped, err := g.AppendDay(&dataset.Snapshot{Day: 10, Records: []dataset.Record{
		rec("a.com", false, false, false),
		{Domain: "b.com", TLD: "com", Operator: "op.example", Failed: true, FailReason: "timeout"},
	}})
	if err != nil {
		t.Fatal(err)
	}
	if skipped != 1 {
		t.Fatalf("skipped %d failed records, want 1", skipped)
	}
	if g.Len() != 1 {
		t.Fatalf("Len %d after failed record, want 1 (failure must not create a row)", g.Len())
	}

	// Day 20: a.com signs but publishes no DS; b.com appears, fully valid.
	// Day 30: a.com adds a DS that does not validate.
	// Day 40: a.com's chain starts validating.
	for _, step := range []struct {
		day  simtime.Day
		recs []dataset.Record
	}{
		{20, []dataset.Record{rec("a.com", true, false, false), rec("b.com", true, true, true)}},
		{30, []dataset.Record{rec("a.com", true, true, false), rec("b.com", true, true, true)}},
		{40, []dataset.Record{rec("a.com", true, true, true), rec("b.com", true, true, true)}},
	} {
		if _, err := g.AppendDay(&dataset.Snapshot{Day: step.day, Records: step.recs}); err != nil {
			t.Fatal(err)
		}
	}

	x := g.Freeze()
	a, b := x.Row(0), x.Row(1)
	if a.Name != "a.com" || b.Name != "b.com" {
		t.Fatalf("row order %q, %q — want first-observation order", a.Name, b.Name)
	}
	if a.Created != 10 || a.KeyDay != 20 || a.DSDay != 30 {
		t.Fatalf("a.com events Created=%d KeyDay=%d DSDay=%d, want 10/20/30", a.Created, a.KeyDay, a.DSDay)
	}
	if b.Created != 20 || b.KeyDay != 20 || b.DSDay != 20 {
		t.Fatalf("b.com events Created=%d KeyDay=%d DSDay=%d, want 20/20/20", b.Created, b.KeyDay, b.DSDay)
	}
	// a.com's broken flag was latched at day 30 and cleared at day 40, so
	// its chain validates from max(KeyDay, DSDay) = 30 onward.
	for _, tc := range []struct {
		day   simtime.Day
		valid bool
	}{{25, false}, {35, true}, {45, true}} {
		snap := x.Snapshot(tc.day)
		if got := snap.Records[0].ChainValid; got != tc.valid {
			t.Errorf("a.com ChainValid at day %d = %v, want %v", tc.day, got, tc.valid)
		}
	}
}

// TestIngestFreezeIsolation: a frozen view must not observe mutations
// from ingest that continues after the freeze.
func TestIngestFreezeIsolation(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	domains := randomDomains(rng, 100)
	snaps := observedDays(domains, 0, 800, 100)

	g := NewIngester()
	ingestAll(t, g, snaps[:3])
	frozen := g.Freeze()
	before := saveBytes(t, frozen)
	ingestAll(t, g, snaps[3:])
	extra := randomDomains(rng, 50)
	for i := range extra {
		extra[i].Name = fmt.Sprintf("late%03d.example", i)
	}
	ingestAll(t, g, []*dataset.Snapshot{refSnapshot(extra, 820)})
	if after := saveBytes(t, frozen); !bytes.Equal(before, after) {
		t.Fatal("continued ingest mutated a frozen index")
	}

	// The name column is shared by bounded re-slice, not copied: a name
	// appended after the freeze lands in the same backing array when it
	// has room, and must still be out of the frozen index's reach.
	g.nameBlob = append(make([]byte, 0, 4*len(g.nameBlob)), g.nameBlob...)
	g.nameOff = append(make([]uint64, 0, 4*len(g.nameOff)), g.nameOff...)
	roomy := g.Freeze()
	n, last := roomy.Len(), roomy.Row(roomy.Len()-1).Name
	late := []Domain{{Name: "after-freeze.example", TLD: "example", Operator: "op00.example", NSHost: "ns1.op00.example", KeyDay: simtime.Never, DSDay: simtime.Never}}
	ingestAll(t, g, []*dataset.Snapshot{refSnapshot(late, 830)})
	if &g.nameBlob[0] != &roomy.nameBlob[0] {
		t.Fatal("the append reallocated the blob: the shared-backing case was not exercised")
	}
	if roomy.Len() != n || roomy.Row(n-1).Name != last {
		t.Fatalf("frozen index now has %d rows ending in %q, had %d ending in %q", roomy.Len(), roomy.Row(roomy.Len()-1).Name, n, last)
	}
	for _, rec := range roomy.Snapshot(830).Records {
		if rec.Domain == late[0].Name {
			t.Fatal("a name appended after Freeze is visible in the frozen index")
		}
	}
	if len(roomy.nameBlob) != cap(roomy.nameBlob) || len(roomy.nameOff) != cap(roomy.nameOff) {
		t.Fatal("frozen name column has spare capacity an append could write into")
	}
	if again := g.Freeze(); again.Row(again.Len()-1).Name != late[0].Name {
		t.Fatalf("a fresh Freeze ends in %q, want the late name", again.Row(again.Len()-1).Name)
	}
}

// TestIngestTLDOverflow: the 16-bit TLD column rejects the 65537th TLD
// with an error instead of silently truncating.
func TestIngestTLDOverflow(t *testing.T) {
	g := NewIngester()
	g.tlds = make([]string, 1<<16)
	for i := range g.tlds {
		g.tlds[i] = fmt.Sprintf("tld%d", i)
		g.tldIDs[g.tlds[i]] = uint16(i)
	}
	_, err := g.AppendDay(&dataset.Snapshot{Day: 1, Records: []dataset.Record{
		{Domain: "x.overflow", TLD: "overflow", Operator: "op.example"},
	}})
	if err == nil {
		t.Fatal("ingesting a 65537th TLD should fail")
	}
}

// TestIngestRejectsDuplicateRows: an index with duplicate domain names
// (possible via Builder) cannot seed an ingester, which addresses rows by
// name.
func TestIngestRejectsDuplicateRows(t *testing.T) {
	b := NewBuilder(2)
	d := Domain{Name: "dup.com", TLD: "com", Operator: "op.example", NSHost: "ns1.op.example"}
	b.Add(d)
	b.Add(d)
	if _, err := NewIngesterFromIndex(b.Build()); err == nil {
		t.Fatal("NewIngesterFromIndex should reject duplicate domain names")
	}
}
