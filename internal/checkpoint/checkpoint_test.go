package checkpoint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
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

// TestStateRoundTrip: the header a single-process sweep writes once comes
// back as written, and names the directory's ledger.
func TestStateRoundTrip(t *testing.T) {
	cp := openTestStore(t)
	if h, err := cp.Load(); err != nil || h != nil {
		t.Fatalf("fresh dir: %v, %v", h, err)
	}
	if got := cp.Ledger(); got != "" {
		t.Errorf("ledger %q before any save", got)
	}
	want := &Header{Fingerprint: "fp-1", Shards: 4, Chunk: 8, Targets: 25}
	if err := cp.Save(want); err != nil {
		t.Fatal(err)
	}
	if got := cp.Ledger(); got != SweepLedger {
		t.Errorf("ledger %q after save, want %q", got, SweepLedger)
	}
	got, err := cp.Load()
	if err != nil {
		t.Fatal(err)
	}
	if *got != *want {
		t.Errorf("header %+v, want %+v", got, want)
	}
}

func TestCorruptStateFileRejected(t *testing.T) {
	cp := openTestStore(t)
	dir := cp.Dir()
	archivetest.Write(t, filepath.Join(dir, SweepLedger), []byte("{torn"))
	if _, err := cp.Load(); err == nil {
		t.Error("corrupt state file accepted")
	}
}

func TestShardWriteLoadVerify(t *testing.T) {
	cp := openTestStore(t)
	day := simtime.Date(2016, 3, 1)
	snap := testSnapshot(day)
	meta, err := cp.WriteChunk(day, 1, 0, "w1", snap)
	if err != nil {
		t.Fatal(err)
	}
	if meta.Records != 2 || meta.File == "" {
		t.Fatalf("meta: %+v", meta)
	}
	got, err := cp.LoadChunk(day, meta)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Records) != 2 || got.Records[0].Domain != "a.com" || !got.Records[1].Failed {
		t.Errorf("shard records: %+v", got.Records)
	}

	// Tamper with the shard file: its own framing catches a flipped byte.
	path := filepath.Join(cp.Dir(), meta.File)
	data := archivetest.Read(t, path)
	data[len(data)/2] ^= 0x01
	archivetest.Write(t, path, data)
	if _, err := cp.LoadChunk(day, meta); err == nil {
		t.Error("tampered shard accepted")
	}
	// A shard that verifies but is not the one the ledger names: the CRC
	// catches it.
	other := testSnapshot(day)
	other.Records = other.Records[:1]
	if _, err := cp.WriteChunk(day, 1, 0, "w1", other); err != nil {
		t.Fatal(err)
	}
	if _, err := cp.LoadChunk(day, meta); err == nil || !strings.Contains(err.Error(), "checksum") {
		t.Errorf("replaced shard: %v", err)
	}

	// A missing shard is an error, not a silent empty snapshot.
	if _, err := cp.LoadChunk(day, &Shard{File: "day-2016-03-01-shard-007-chunk-00000.tsv"}); err == nil {
		t.Error("missing shard accepted")
	}
	// A ledger entry may only name a file directly inside the directory.
	for _, name := range []string{"", "..", "../" + meta.File, "sub/" + meta.File} {
		if _, err := cp.LoadChunk(day, &Shard{File: name, CRC: meta.CRC, Records: meta.Records}); err == nil {
			t.Errorf("file name %q accepted", name)
		}
	}

	// Wrong record count in the state is detected even with a valid file.
	fixed, err := cp.WriteChunk(day, 1, 0, "w1", snap)
	if err != nil {
		t.Fatal(err)
	}
	fixed.Records = 99
	if _, err := cp.LoadChunk(day, fixed); err == nil {
		t.Error("record-count mismatch accepted")
	}
}

func TestClear(t *testing.T) {
	cp := openTestStore(t)
	dir := cp.Dir()
	day := simtime.Date(2016, 3, 1)
	if _, err := cp.WriteChunk(day, 0, 0, "w1", testSnapshot(day)); err != nil {
		t.Fatal(err)
	}
	if err := cp.Save(&Header{Fingerprint: "fp"}); err != nil {
		t.Fatal(err)
	}
	// Clear leaves neither ledger behind, nor the temp file of an atomic
	// write of either, or of a chunk, that a kill cut short.
	for _, name := range []string{CoordLedger, ".checkpoint.json.tmp-123", ".coordinator.json.tmp-4",
		".day-2016-03-01-shard-000-chunk-00001.tsv.tmp-99"} {
		archivetest.Write(t, filepath.Join(dir, name), []byte("{}"))
	}
	// An unrelated file survives Clear.
	keep := filepath.Join(dir, "notes.txt")
	archivetest.Write(t, keep, []byte("keep me"))
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
	if got := cp.Ledger(); got != "" {
		t.Errorf("ledger %q after Clear", got)
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
}

// TestAdopt is the -resume contract both CLIs share: an empty directory is
// free, a directory holding this kind of state needs -resume, and one
// holding the other kind's state is refused by name either way.
func TestAdopt(t *testing.T) {
	for _, tc := range []struct {
		have, want string
		resume     bool
		found      bool
		refusal    string
	}{
		{"", SweepLedger, false, false, ""},
		{"", CoordLedger, true, false, ""},
		{SweepLedger, SweepLedger, true, true, ""},
		{CoordLedger, CoordLedger, true, true, ""},
		{SweepLedger, SweepLedger, false, false, "pass -resume"},
		{CoordLedger, CoordLedger, false, false, "pass -resume"},
		{CoordLedger, SweepLedger, false, false, "regsec-sweepd"},
		{CoordLedger, SweepLedger, true, false, "regsec-sweepd"},
		{SweepLedger, CoordLedger, false, false, "regsec-scan"},
		{SweepLedger, CoordLedger, true, false, "regsec-scan"},
	} {
		cp := openTestStore(t)
		dir := cp.Dir()
		if tc.have != "" {
			archivetest.Write(t, filepath.Join(dir, tc.have), []byte("{}"))
		}
		found, err := cp.Adopt(tc.want, tc.resume)
		if found != tc.found {
			t.Errorf("%+v: found %v", tc, found)
		}
		if tc.refusal == "" && err != nil {
			t.Errorf("%+v: refused: %v", tc, err)
		}
		if tc.refusal != "" && (err == nil || !strings.Contains(err.Error(), tc.refusal) || !strings.Contains(err.Error(), tc.have)) {
			t.Errorf("%+v: err %v, want a refusal naming %q and %q", tc, err, tc.have, tc.refusal)
		}
	}
}
