// Package checkpoint persists the progress of a multi-day measurement
// sweep so an interrupted run — crash, SIGINT, OOM kill — resumes from the
// last completed chunk instead of day zero. The paper's core evidence is
// an unbroken 21-month daily archive (section 4.1); at production scale a
// sweep that cannot survive its own process dying will eventually put a
// hole in that series.
//
// A checkpoint directory holds one JSON state file plus one trailered
// archive file per completed chunk of a shard; a distributed sweep adds
// one owner-tagged archive per completed shard, the unit its coordinator
// settles and merges. Every write is durable (temp file + fsync + atomic
// rename), and every file read back on resume is verified twice: its bytes
// against the CRC32C recorded in the state, and the archive's own
// per-section trailers. A file that fails either check is reported damaged
// and re-scanned rather than trusted.
package checkpoint

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// stateFile is the JSON progress file inside a checkpoint directory.
const stateFile = "checkpoint.json"

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Shard records one durable archive file: a completed chunk of a shard,
// or a distributed worker's completed shard.
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
	// Targets is the shard's target count, so per-chunk target counts
	// (and the health ledger) reconstruct without re-deriving the plan.
	Targets int `json:"targets"`
	// Done maps chunk index to its completed archive.
	Done map[int]*Shard `json:"done"`
}

// Complete reports whether every chunk of the shard is recorded.
func (cp *ChunkProgress) Complete() bool {
	return len(cp.Done) == cp.Chunks
}

// ChunkTargets returns chunk c's target count under this progress' fixed
// chunk size (the last chunk is the remainder).
func (cp *ChunkProgress) ChunkTargets(c int) int {
	lo := c * cp.Chunk
	if lo >= cp.Targets {
		return 0
	}
	if hi := lo + cp.Chunk; hi < cp.Targets {
		return cp.Chunk
	}
	return cp.Targets - lo
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

// Exists reports whether a checkpoint state file is present.
func (s *Store) Exists() bool {
	_, err := os.Stat(filepath.Join(s.dir, stateFile))
	return err == nil
}

// Load returns the saved state, or nil when no checkpoint exists yet.
func (s *Store) Load() (*State, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, stateFile))
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	st := &State{}
	if err := json.Unmarshal(data, st); err != nil {
		return nil, fmt.Errorf("checkpoint: corrupt state file %s: %w", stateFile, err)
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
	return dataset.WriteFileAtomic(filepath.Join(s.dir, stateFile), append(data, '\n'))
}

// shardFileAs names one shard's archive written by a specific owner, so
// two workers racing on a re-leased shard can never clobber each other's
// bytes — each completion is its own file, chosen between by checksum.
func shardFileAs(day simtime.Day, shard int, owner string) string {
	return fmt.Sprintf("day-%s-shard-%03d.w-%s.tsv", day, shard, sanitizeOwner(owner))
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

// WriteShardAs durably writes one completed shard snapshot as a trailered
// archive under an owner-tagged file name, and returns its metadata. It is
// a distributed worker's completion artefact: duplicate completions of a
// re-leased shard land in distinct files instead of racing on one.
func (s *Store) WriteShardAs(day simtime.Day, shard int, owner string, snap *dataset.Snapshot) (*Shard, error) {
	return s.writeShardFile(shardFileAs(day, shard, owner), snap)
}

// writeShardFile durably writes one snapshot under the given name.
func (s *Store) writeShardFile(name string, snap *dataset.Snapshot) (*Shard, error) {
	var buf bytes.Buffer
	if err := snap.WriteArchiveSection(&buf); err != nil {
		return nil, err
	}
	data := buf.Bytes()
	if err := dataset.WriteFileAtomic(filepath.Join(s.dir, name), data); err != nil {
		return nil, err
	}
	return &Shard{
		File:    name,
		CRC:     crc32.Checksum(data, castagnoli),
		Records: len(snap.Records),
	}, nil
}

// LoadShard re-reads a shard archive, verifying the file's bytes against
// the recorded CRC and the archive against its own trailers. The returned
// snapshot carries exactly the records written at checkpoint time; any
// mismatch is an error so the caller re-scans instead of trusting damage.
func (s *Store) LoadShard(day simtime.Day, shard int, meta *Shard) (*dataset.Snapshot, error) {
	if meta.File == "" {
		return nil, fmt.Errorf("checkpoint: shard %d of %s: completion names no file", shard, day)
	}
	return s.loadVerified(day, meta.File, meta)
}

// loadVerified reads one trailered archive file and verifies it against
// its state metadata: file bytes against the recorded CRC, the archive
// against its own trailers, record count against the state.
func (s *Store) loadVerified(day simtime.Day, name string, meta *Shard) (*dataset.Snapshot, error) {
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: shard %s: %w", name, err)
	}
	if got := crc32.Checksum(data, castagnoli); got != meta.CRC {
		return nil, fmt.Errorf("checkpoint: shard %s: checksum mismatch (state %08x, file %08x)", name, meta.CRC, got)
	}
	store, err := dataset.ReadArchiveStrict(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: shard %s: %w", name, err)
	}
	snap := store.Get(day)
	if snap == nil {
		return nil, fmt.Errorf("checkpoint: shard %s: no snapshot for %s", name, day)
	}
	if len(snap.Records) != meta.Records {
		return nil, fmt.Errorf("checkpoint: shard %s: %d records, state says %d", name, len(snap.Records), meta.Records)
	}
	return snap, nil
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
		nChunks := (targets + chunkSize - 1) / chunkSize
		if targets == 0 {
			nChunks = 0
		}
		cp = &ChunkProgress{Chunk: chunkSize, Chunks: nChunks, Targets: targets, Done: make(map[int]*Shard)}
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

// chunkFile names one chunk's archive inside the directory.
func chunkFile(day simtime.Day, shard, chunk int) string {
	return fmt.Sprintf("day-%s-shard-%03d-chunk-%05d.tsv", day, shard, chunk)
}

// chunkFileAs is the owner-tagged variant for distributed workers (see
// shardFileAs).
func chunkFileAs(day simtime.Day, shard, chunk int, owner string) string {
	return fmt.Sprintf("day-%s-shard-%03d-chunk-%05d.w-%s.tsv", day, shard, chunk, sanitizeOwner(owner))
}

// WriteChunk durably writes one completed chunk snapshot as a trailered
// archive and returns its metadata for the state file.
func (s *Store) WriteChunk(day simtime.Day, shard, chunk int, snap *dataset.Snapshot) (*Shard, error) {
	return s.writeShardFile(chunkFile(day, shard, chunk), snap)
}

// WriteChunkAs is WriteChunk under an owner-tagged file name.
func (s *Store) WriteChunkAs(day simtime.Day, shard, chunk int, owner string, snap *dataset.Snapshot) (*Shard, error) {
	return s.writeShardFile(chunkFileAs(day, shard, chunk, owner), snap)
}

// LoadChunk re-reads a chunk archive with the same double verification as
// LoadShard (state CRC plus archive trailers).
func (s *Store) LoadChunk(day simtime.Day, shard, chunk int, meta *Shard) (*dataset.Snapshot, error) {
	name := meta.File
	if name == "" {
		name = chunkFile(day, shard, chunk)
	}
	return s.loadVerified(day, name, meta)
}

// LoadChunkAs re-reads an owner-tagged chunk archive, verified only by
// its own trailers — there is no recorded CRC because the writer died (or
// lost its lease) before reporting it. A missing file is returned as
// fs.ErrNotExist (via os.ReadFile) so callers can distinguish "never
// written" from "written but damaged".
func (s *Store) LoadChunkAs(day simtime.Day, shard, chunk int, owner string) (*dataset.Snapshot, error) {
	name := chunkFileAs(day, shard, chunk, owner)
	data, err := os.ReadFile(filepath.Join(s.dir, name))
	if err != nil {
		return nil, err
	}
	store, err := dataset.ReadArchiveStrict(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("checkpoint: chunk %s: %w", name, err)
	}
	snap := store.Get(day)
	if snap == nil {
		return nil, fmt.Errorf("checkpoint: chunk %s: no snapshot for %s", name, day)
	}
	return snap, nil
}

// Clear removes the state file and every shard archive — called after the
// final archive has been durably written, when the checkpoint has nothing
// left to protect.
func (s *Store) Clear() error {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return err
	}
	for _, e := range entries {
		name := e.Name()
		if name == stateFile || (strings.HasPrefix(name, "day-") && strings.HasSuffix(name, ".tsv")) {
			if err := os.Remove(filepath.Join(s.dir, name)); err != nil {
				return err
			}
		}
	}
	return nil
}
