// Package checkpoint persists the progress of a multi-day measurement
// sweep so an interrupted run — crash, SIGINT, OOM kill — resumes from the
// last completed chunk instead of day zero. The paper's core evidence is
// an unbroken 21-month daily archive (section 4.1); at production scale a
// sweep that cannot survive its own process dying will eventually put a
// hole in that series.
//
// A checkpoint directory holds one ledger plus one trailered archive file
// per completed chunk of a shard. The durable unit of a sweep is a finished
// (day, shard): a ChunkProgress naming each of its chunk files with the
// file's CRC32C and record count. Whoever runs the sweep owns the ledger
// that records those units — SweepLedger for a single-process
// scan.ResumableSweep, CoordLedger for a dsweep.Coordinator — and both turn
// finished units into an archive through AppendUnit. Every write is durable
// (temp file + fsync + atomic rename), and every file read back is verified
// three times: its bytes against the recorded CRC32C, the archive against
// its own per-section trailers, its record count against the ledger. A file
// that fails any check is reported damaged rather than trusted.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"strings"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// The two ledgers a checkpoint directory can hold. A directory belongs to
// the sweep whose ledger is in it, and never to both kinds.
const (
	// SweepLedger is a single-process scan.ResumableSweep's State.
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

// DayProgress tracks one day of the sweep.
type DayProgress struct {
	// Done is set once every chunk of every shard has been written.
	Done bool `json:"done"`
	// Partial maps shard index to its chunk-granular progress. A day is
	// Done when every chunk of every shard is recorded here.
	Partial map[int]*ChunkProgress `json:"partial,omitempty"`
}

// ChunkProgress tracks one shard of a day at chunk granularity: a SIGKILL
// mid-shard loses at most the chunk in flight, and a resume re-enters the
// shard at the first chunk missing from Done.
type ChunkProgress struct {
	// Chunk is the chunk size (targets per chunk) the shard was cut with.
	// A resume under a different chunk size is refused — chunk boundaries
	// are part of what the recorded files mean.
	Chunk int `json:"chunk"`
	// Chunks is the shard's total chunk count.
	Chunks int `json:"chunks"`
	// Targets is the shard's target count; with Chunk it fixes Chunks.
	Targets int `json:"targets"`
	// Done maps chunk index to its completed archive.
	Done map[int]*Shard `json:"done"`
}

// State is the whole sweep's progress.
type State struct {
	// Fingerprint identifies the sweep configuration (days, sample,
	// sharding, seeds). Resuming under a different configuration is
	// refused: mixing shards of two different sweeps would fabricate data.
	Fingerprint string `json:"fingerprint"`
	// Days maps day (YYYY-MM-DD) to its progress.
	Days map[string]*DayProgress `json:"days"`
}

// NewState creates an empty state for a sweep configuration.
func NewState(fingerprint string) *State {
	return &State{Fingerprint: fingerprint, Days: make(map[string]*DayProgress)}
}

// Day returns the progress entry for day, creating it if needed.
func (st *State) Day(day simtime.Day) *DayProgress {
	key := day.String()
	dp := st.Days[key]
	if dp == nil {
		dp = &DayProgress{}
		st.Days[key] = dp
	}
	return dp
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

// Load returns the saved state, or nil when no checkpoint exists yet.
func (s *Store) Load() (*State, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, SweepLedger))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st := &State{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt state file %s: %w", SweepLedger, err)
	}
	if st.Days == nil {
		st.Days = make(map[string]*DayProgress)
	}
	return st, nil
}

// Save atomically and durably replaces the state file.
func (s *Store) Save(st *State) error {
	data, err := json.MarshalIndent(st, "", "  ")
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

// ChunkShard returns the chunk-progress entry for one shard of a day,
// creating it for the given geometry if absent. If an existing entry was
// recorded under a different geometry (chunk size or target count), it
// returns an error instead: the recorded chunk files were cut at different
// boundaries and cannot be reused.
func (dp *DayProgress) ChunkShard(shard, chunkSize, targets int) (*ChunkProgress, error) {
	if dp.Partial == nil {
		dp.Partial = make(map[int]*ChunkProgress)
	}
	cp := dp.Partial[shard]
	if cp == nil {
		cp = NewChunkProgress(chunkSize, targets)
		dp.Partial[shard] = cp
		return cp, nil
	}
	if cp.Chunk != chunkSize || cp.Targets != targets {
		return nil, fmt.Errorf("checkpoint: shard %d was chunked as %d targets in chunks of %d; this run wants %d in chunks of %d",
			shard, cp.Targets, cp.Chunk, targets, chunkSize)
	}
	if cp.Done == nil {
		cp.Done = make(map[int]*Shard)
	}
	return cp, nil
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
	out := make([]byte, 0, len(owner))
	for i := 0; i < len(owner); i++ {
		c := owner[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9', c == '-', c == '_', c == '.':
			out = append(out, c)
		default:
			out = append(out, '-')
		}
	}
	if len(out) == 0 {
		return "anon"
	}
	return string(out)
}

// chunkFile names one chunk's archive inside the directory. A distributed
// worker's files carry its owner tag, so two workers racing on a re-leased
// shard never clobber each other's bytes: each completion is its own set of
// files, chosen between by checksum.
func chunkFile(day simtime.Day, shard, chunk int, owner string) string {
	if owner == "" {
		return fmt.Sprintf("day-%s-shard-%03d-chunk-%05d.tsv", day, shard, chunk)
	}
	return fmt.Sprintf("day-%s-shard-%03d-chunk-%05d.w-%s.tsv", day, shard, chunk, sanitizeOwner(owner))
}

// WriteChunk durably writes one completed chunk snapshot as a trailered
// archive — under owner's tag when owner is non-empty — and returns its
// metadata for the ledger.
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

// readChunk reads one trailered chunk file and verifies the archive against
// its own trailers, returning the day's snapshot and the CRC32C of the bytes
// read. A missing file is returned as fs.ErrNotExist (via os.ReadFile).
func (s *Store) readChunk(day simtime.Day, name string) (*dataset.Snapshot, uint32, error) {
	if !plainName(name) {
		return nil, 0, fmt.Errorf("checkpoint: chunk %q names no file in the directory", name)
	}
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: chunk %s: %w", name, err)
	}
	store, err := dataset.ReadArchiveStrict(bytes.NewReader(data))
	if err != nil {
		return nil, 0, fmt.Errorf("checkpoint: chunk %s: %w", name, err)
	}
	snap := store.Get(day)
	if snap == nil {
		return nil, 0, fmt.Errorf("checkpoint: chunk %s: no snapshot for %s", name, day)
	}
	return snap, crc32.Checksum(data, castagnoli), nil
}

// LoadChunk re-reads a chunk archive and verifies it against its ledger
// entry: the file's bytes against the recorded CRC, the archive against its
// own trailers, the record count against the ledger. The returned snapshot
// carries exactly the records written at checkpoint time; any mismatch is
// an error so the caller re-scans instead of trusting damage.
func (s *Store) LoadChunk(day simtime.Day, meta *Shard) (*dataset.Snapshot, error) {
	snap, crc, err := s.readChunk(day, meta.File)
	if err != nil {
		return nil, err
	}
	if crc != meta.CRC {
		return nil, fmt.Errorf("checkpoint: chunk %s: checksum mismatch (state %08x, file %08x)", meta.File, meta.CRC, crc)
	}
	if len(snap.Records) != meta.Records {
		return nil, fmt.Errorf("checkpoint: chunk %s: %d records, state says %d", meta.File, len(snap.Records), meta.Records)
	}
	return snap, nil
}

// RecoverChunks rebuilds an owner's progress on one shard from the files it
// left in the directory: a distributed worker keeps no ledger of its own, so
// after a kill its owner-tagged chunk files are the record. Each file found
// is verified by its trailers and entered in cp under the CRC of the bytes
// read; found hears of each (err non-nil for a damaged file, which is left
// out and re-scanned).
func (s *Store) RecoverChunks(day simtime.Day, shard int, owner string, cp *ChunkProgress, found func(chunk, records int, err error)) {
	for c := 0; c < cp.Chunks; c++ {
		name := chunkFile(day, shard, c, owner)
		snap, crc, err := s.readChunk(day, name)
		switch {
		case errors.Is(err, fs.ErrNotExist):
		case err != nil:
			found(c, 0, err)
		default:
			cp.Done[c] = &Shard{File: name, CRC: crc, Records: len(snap.Records)}
			found(c, len(snap.Records), nil)
		}
	}
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

// Clear removes both ledgers and every chunk archive — called after the
// final archive has been durably written, when the checkpoint has nothing
// left to protect.
func (s *Store) Clear() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if name == SweepLedger || name == CoordLedger || (strings.HasPrefix(name, "day-") && strings.HasSuffix(name, ".tsv")) {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
