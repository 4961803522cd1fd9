package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

func testSnapshot(day simtime.Day) *dataset.Snapshot {
	return &dataset.Snapshot{Day: day, Records: []dataset.Record{
		{Domain: "a.com", TLD: "com", Operator: "op.net", NSHosts: []string{"ns1.op.net"},
			HasDNSKEY: true, HasRRSIG: true, HasDS: true, ChainValid: true},
		{Domain: "gap.com", TLD: "com", Failed: true, FailReason: "timeout"},
	}}
}

func TestStateRoundTrip(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if st, err := cp.Load(); err != nil || st != nil {
		t.Fatalf("fresh dir: %v, %v", st, err)
	}
	if cp.Exists() {
		t.Error("Exists before any save")
	}
	day := simtime.Date(2016, 1, 1)
	st := NewState("fp-1")
	cpr, err := st.Day(day).ChunkShard(0, 8, 2)
	if err != nil {
		t.Fatal(err)
	}
	cpr.Done[0] = &Shard{File: "day-2016-01-01-shard-000-chunk-00000.tsv", CRC: 42, Records: 2}
	st.Day(day).Done = true
	if err := cp.Save(st); err != nil {
		t.Fatal(err)
	}
	if !cp.Exists() {
		t.Error("Exists after save")
	}
	got, err := cp.Load()
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint != "fp-1" {
		t.Errorf("fingerprint: %q", got.Fingerprint)
	}
	dp := got.Day(day)
	if !dp.Done || dp.Partial[0] == nil || !dp.Partial[0].Complete() {
		t.Fatalf("day progress: %+v", dp)
	}
	if c := dp.Partial[0].Done[0]; c == nil || c.CRC != 42 || c.Records != 2 {
		t.Errorf("chunk meta: %+v", c)
	}
}

func TestCorruptStateFileRejected(t *testing.T) {
	dir := t.TempDir()
	cp, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "checkpoint.json"), []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.Load(); err == nil {
		t.Error("corrupt state file accepted")
	}
}

func TestShardWriteLoadVerify(t *testing.T) {
	cp, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2016, 3, 1)
	snap := testSnapshot(day)
	meta, err := cp.WriteShardAs(day, 1, "w1", snap)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Records != 2 || meta.File == "" {
		t.Fatalf("meta: %+v", meta)
	}
	got, err := cp.LoadShard(day, 1, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || got.Records[0].Domain != "a.com" || !got.Records[1].Failed {
		t.Errorf("shard records: %+v", got.Records)
	}

	// Tamper with the shard file: the CRC catches it.
	path := filepath.Join(cp.Dir(), meta.File)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x01
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.LoadShard(day, 1, meta); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("tampered shard: %v", err)
	}

	// A missing shard is an error, not a silent empty snapshot.
	if _, err := cp.LoadShard(day, 7, &Shard{File: "day-2016-03-01-shard-007.tsv"}); err == nil {
		t.Error("missing shard accepted")
	}

	// Wrong record count in the state is detected even with a valid file.
	fixed, err := cp.WriteShardAs(day, 1, "w1", snap)
	if err != nil {
		t.Fatal(err)
	}
	fixed.Records = 99
	if _, err := cp.LoadShard(day, 1, fixed); err == nil {
		t.Error("record-count mismatch accepted")
	}
}

func TestClear(t *testing.T) {
	dir := t.TempDir()
	cp, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	day := simtime.Date(2016, 3, 1)
	if _, err := cp.WriteShardAs(day, 0, "w1", testSnapshot(day)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Save(NewState("fp")); err != nil {
		t.Fatal(err)
	}
	// An unrelated file survives Clear.
	keep := filepath.Join(dir, "notes.txt")
	if err := os.WriteFile(keep, []byte("keep me"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cp.Clear(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Name() != "notes.txt" {
		t.Errorf("after Clear: %v", entries)
	}
	if cp.Exists() {
		t.Error("Exists after Clear")
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
}
