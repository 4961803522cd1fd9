// Package checkpoint keeps the durable pieces of a multi-day measurement
// sweep so an interrupted run — crash, SIGINT, OOM kill — resumes from the
// last completed chunk instead of day zero. The paper's core evidence is
// an unbroken 21-month daily archive (section 4.1); at production scale a
// sweep that cannot survive its own process dying will eventually put a
// hole in that series.
//
// A checkpoint directory holds one trailered archive file per completed
// chunk of a shard, and the directory is the record of them: ReadChunk
// finds a chunk's file by its name (day, shard, chunk and, for a
// distributed worker, an owner tag), and the file's own checks — the gzip
// CRC-32 and length, the trailer's length and CRC32C, the declared record
// count and the day — decide whether it is reused. Beside the files sits
// one ledger saying whose they are: a single-process scan.ResumableSweep's
// Header, written once per sweep, or a dsweep.Coordinator's lease and
// completion state. A finished (day, shard) is a ChunkProgress naming each
// of its chunk files with the file's CRC32C and record count, and
// AppendUnit turns one into records, holding every file to its entry.
// Every write is durable (temp file + fsync + atomic rename), and a file
// that fails any check is reported damaged rather than trusted.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// The two ledgers a checkpoint directory can hold. A directory belongs to
// the sweep whose ledger is in it, and never to both kinds.
const (
	// SweepLedger is a single-process scan.ResumableSweep's Header.
	SweepLedger = "checkpoint.json"
	// CoordLedger is a dsweep.Coordinator's lease and completion state.
	CoordLedger = "coordinator.json"
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Shard records one durable archive file: a completed chunk of a shard.
type Shard struct {
	// File is the archive's name inside the checkpoint directory.
	File string `json:"file"`
	// CRC is the CRC32C of the archive's bytes, verified on load.
	CRC uint32 `json:"crc32c"`
	// Records is the snapshot's record count, verified on load.
	Records int `json:"records"`
}

// ChunkProgress is one shard of a day at chunk granularity: its geometry
// and the file of every chunk entered so far. A finished shard's is the
// manifest a worker reports and the coordinator merges.
type ChunkProgress struct {
	// Chunk is the chunk size (targets per chunk) the shard was cut with.
	Chunk int `json:"chunk"`
	// Chunks is the shard's total chunk count.
	Chunks int `json:"chunks"`
	// Targets is the shard's target count; with Chunk it fixes Chunks.
	Targets int `json:"targets"`
	// Done maps chunk index to its completed archive.
	Done map[int]*Shard `json:"done"`
}

// Header is a single-process sweep's ledger (SweepLedger), written once,
// before the sweep's first chunk: the sweep the directory's chunk files
// belong to and how its days were cut. A chunk file's name locates its
// targets only under this geometry, so a run that cuts its days otherwise
// is refused rather than handed another cut's files.
type Header struct {
	// Fingerprint identifies the sweep configuration (days, sample,
	// sharding, seeds). Resuming under a different configuration is
	// refused: mixing shards of two different sweeps would fabricate data.
	Fingerprint string `json:"fingerprint"`
	// Shards is the number of shards each day is cut into.
	Shards int `json:"shards"`
	// Chunk is the chunk size (targets per chunk) each shard is cut with.
	Chunk int `json:"chunk"`
	// Targets is each day's target count; with Shards it fixes every
	// shard's span.
	Targets int `json:"targets"`
}

// Store is a checkpoint directory.
type Store struct {
	dir string
}

// Open creates (if needed) and returns the checkpoint directory.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("checkpoint: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Dir returns the checkpoint directory path.
func (s *Store) Dir() string { return s.dir }

// Ledger returns the name of the ledger the directory holds (SweepLedger or
// CoordLedger), or "" when it holds no sweep state.
func (s *Store) Ledger() string {
	for _, name := range []string{SweepLedger, CoordLedger} {
		if _, err := os.Stat(filepath.Join(s.dir, name)); err == nil {
			return name
		}
	}
	return ""
}

// Adopt is a CLI's gate before it runs the sweep whose ledger is want in the
// directory: found reports state of that kind to continue. State of the
// other kind is refused by name — finishing a sweep clears the directory,
// which would destroy the other sweep's chunks — and state of this kind is
// refused unless resume says the operator means to continue it.
func (s *Store) Adopt(want string, resume bool) (found bool, err error) {
	switch have := s.Ledger(); {
	case have == "":
		return false, nil
	case have != want:
		owner := map[string]string{
			SweepLedger: "a single-process regsec-scan sweep",
			CoordLedger: "a regsec-sweepd coordinator",
		}[have]
		return false, fmt.Errorf("checkpoint: %s holds %s: it belongs to %s; continue it there, or use another directory",
			s.dir, have, owner)
	case !resume:
		return false, fmt.Errorf("checkpoint: %s already present in %s: pass -resume to continue it, or remove the directory to start over",
			have, s.dir)
	}
	return true, nil
}

// Load returns the directory's header, or nil when it holds none.
func (s *Store) Load() (*Header, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, SweepLedger))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	h := &Header{}
	if err := json.Unmarshal(data, h); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt header %s: %w", SweepLedger, err)
	}
	return h, nil
}

// Save durably writes the header.
func (s *Store) Save(h *Header) error {
	data, err := json.MarshalIndent(h, "", "  ")
	if err != nil {
		return err
	}
	return dataset.WriteFileAtomic(filepath.Join(s.dir, SweepLedger), append(data, '\n'))
}

// chunkCount is the number of chunks of chunkSize that targets targets make.
func chunkCount(chunkSize, targets int) int { return (targets + chunkSize - 1) / chunkSize }

// NewChunkProgress returns empty progress for a shard of targets targets
// cut into chunks of chunkSize.
func NewChunkProgress(chunkSize, targets int) *ChunkProgress {
	return &ChunkProgress{Chunk: chunkSize, Chunks: chunkCount(chunkSize, targets), Targets: targets, Done: make(map[int]*Shard)}
}

// WellFormed checks a manifest that arrived from outside the process — a
// worker's completion, a coordinator ledger read back — before anything
// walks it: the geometry is the one chunkSize cuts, and every chunk of the
// shard, and nothing else, is recorded. (What a recorded chunk names is
// checked when its file is read.)
func (cp *ChunkProgress) WellFormed(chunkSize int) error {
	if chunkSize < 1 || cp.Chunk != chunkSize || cp.Targets < 0 {
		return fmt.Errorf("checkpoint: manifest of %d targets in chunks of %d, want chunks of %d", cp.Targets, cp.Chunk, chunkSize)
	}
	if want := chunkCount(chunkSize, cp.Targets); cp.Chunks != want || len(cp.Done) != want {
		return fmt.Errorf("checkpoint: manifest records %d of %d chunks; %d targets in chunks of %d make %d",
			len(cp.Done), cp.Chunks, cp.Targets, chunkSize, want)
	}
	for c := 0; c < cp.Chunks; c++ {
		if cp.Done[c] == nil {
			return fmt.Errorf("checkpoint: manifest does not record chunk %d", c)
		}
	}
	return nil
}

// plainName reports whether name is a file directly inside the directory.
func plainName(name string) bool {
	return name != "" && name != "." && name != ".." && !strings.ContainsAny(name, `/\`)
}

// sanitizeOwner restricts an owner tag to filename-safe characters.
func sanitizeOwner(owner string) string {
	return strings.Map(func(c rune) rune {
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || strings.ContainsRune("-_.", c) {
			return c
		}
		return '-'
	}, owner)
}

// chunkFile names one chunk's archive inside the directory. A distributed
// worker's files carry its owner tag, so two workers racing on a re-leased
// shard never clobber each other's bytes: each completion is its own set of
// files, chosen between by checksum. The tag is only made filename-safe
// here; keeping two owners' tags apart is the caller's part.
func chunkFile(day simtime.Day, shard, chunk int, owner string) string {
	if owner == "" {
		return fmt.Sprintf("day-%s-shard-%03d-chunk-%05d.tsv", day, shard, chunk)
	}
	return fmt.Sprintf("day-%s-shard-%03d-chunk-%05d.w-%s.tsv", day, shard, chunk, sanitizeOwner(owner))
}

// WriteChunk durably writes one completed chunk snapshot as a trailered
// archive — under owner's tag when owner is non-empty — and returns its
// manifest entry.
func (s *Store) WriteChunk(day simtime.Day, shard, chunk int, owner string, snap *dataset.Snapshot) (*Shard, error) {
	var buf bytes.Buffer
	if err := snap.WriteArchiveSection(&buf); err != nil {
		return nil, err
	}
	name := chunkFile(day, shard, chunk, owner)
	if err := dataset.WriteFileAtomic(filepath.Join(s.dir, name), buf.Bytes()); err != nil {
		return nil, err
	}
	return &Shard{
		File:    name,
		CRC:     crc32.Checksum(buf.Bytes(), castagnoli),
		Records: len(snap.Records),
	}, nil
}

// readChunk reads the chunk file name and verifies it by its own checks: it
// must be exactly one verified section (gzip CRC-32 and length, trailer
// length and CRC32C, declared record count), of day. It returns the
// section's snapshot and the entry naming the file, with the CRC32C of the
// bytes read. A missing file is an error wrapping fs.ErrNotExist.
func (s *Store) readChunk(day simtime.Day, name string) (*dataset.Snapshot, *Shard, error) {
	if !plainName(name) {
		return nil, nil, fmt.Errorf("checkpoint: chunk %q names no file in the directory", name)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: chunk %s: %w", name, err)
	}
	var snap *dataset.Snapshot
	report, err := dataset.ScanArchive(bytes.NewReader(data), func(sn *dataset.Snapshot) error {
		snap = sn
		return nil
	})
	switch {
	case err != nil:
		return nil, nil, fmt.Errorf("checkpoint: chunk %s: %w", name, err)
	case !report.Clean():
		return nil, nil, fmt.Errorf("checkpoint: chunk %s: %s", name, report)
	case report.Sections != 1:
		return nil, nil, fmt.Errorf("checkpoint: chunk %s holds %d sections, want one", name, report.Sections)
	case snap.Day != day:
		return nil, nil, fmt.Errorf("checkpoint: chunk %s holds %s, want %s", name, snap.Day, day)
	}
	return snap, &Shard{File: name, CRC: crc32.Checksum(data, castagnoli), Records: len(snap.Records)}, nil
}

// ReadChunk reads one chunk's file by its name — under owner's tag when
// owner is non-empty — and verifies it by the file's own checks, returning
// its snapshot and its manifest entry. A missing file is an error wrapping
// fs.ErrNotExist.
func (s *Store) ReadChunk(day simtime.Day, shard, chunk int, owner string) (*dataset.Snapshot, *Shard, error) {
	return s.readChunk(day, chunkFile(day, shard, chunk, owner))
}

// LoadChunk re-reads a chunk archive and verifies it against its manifest
// entry: the file by its own checks, as ReadChunk does, then its bytes
// against the recorded CRC and its record count against the recorded one.
// Any mismatch is an error, so the caller never trusts damage.
func (s *Store) LoadChunk(day simtime.Day, meta *Shard) (*dataset.Snapshot, error) {
	snap, got, err := s.readChunk(day, meta.File)
	if err != nil {
		return nil, err
	}
	if got.CRC != meta.CRC {
		return nil, fmt.Errorf("checkpoint: chunk %s: checksum mismatch (manifest %08x, file %08x)", meta.File, meta.CRC, got.CRC)
	}
	if got.Records != meta.Records {
		return nil, fmt.Errorf("checkpoint: chunk %s: %d records, manifest says %d", meta.File, got.Records, meta.Records)
	}
	return snap, nil
}

// ChunkError reports the chunk of a finished unit that is missing from its
// manifest or whose file failed verification.
type ChunkError struct {
	Chunk int
	Err   error
}

func (e *ChunkError) Error() string { return fmt.Sprintf("chunk %d: %v", e.Chunk, e.Err) }
func (e *ChunkError) Unwrap() error { return e.Err }

// AppendUnit turns one finished (day, shard) into records: every chunk the
// manifest counts is loaded in chunk order, verified against its recorded
// CRC, its trailers and its record count, and handed to emit (typically a
// dataset.SpillWriter's Append). A chunk that is not recorded or does not
// verify stops the walk with a *ChunkError; an error from emit is returned
// as it is.
func (s *Store) AppendUnit(day simtime.Day, cp *ChunkProgress, emit func(recs ...dataset.Record) error) error {
	for c := 0; c < cp.Chunks; c++ {
		meta := cp.Done[c]
		if meta == nil {
			return &ChunkError{Chunk: c, Err: errors.New("checkpoint: not recorded in the manifest")}
		}
		snap, err := s.LoadChunk(day, meta)
		if err != nil {
			return &ChunkError{Chunk: c, Err: err}
		}
		if err := emit(snap.Records...); err != nil {
			return err
		}
	}
	return nil
}

// sweepFile reports whether name is a file a sweep leaves in the
// directory: a ledger, a chunk archive, or the temp file of an atomic write
// of either that a kill cut short.
func sweepFile(name string) bool {
	if tmp, ok := strings.CutPrefix(name, "."); ok {
		if target, _, ok := strings.Cut(tmp, ".tmp-"); ok {
			name = target
		}
	}
	return name == SweepLedger || name == CoordLedger || strings.HasPrefix(name, "day-") && strings.HasSuffix(name, ".tsv")
}

// Clear removes both ledgers, every chunk archive and any temp file a killed
// write of one left behind — called after the final archive has been durably
// written, when the checkpoint has nothing left to protect.
func (s *Store) Clear() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		if sweepFile(e.Name()) {
			if err := os.Remove(filepath.Join(s.dir, e.Name())); err != nil {
				return err
			}
		}
	}
	return nil
}
