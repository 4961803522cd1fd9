package tldsim

// World persistence: build once, load many. A world's columnar index is
// saved in the colstore section format and re-loaded (memory-mapped where
// possible) in O(seconds), keyed by a fingerprint of everything that
// determines the population — so a cache hit is exactly the world a fresh
// build would have produced.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io/fs"
	"log/slog"
	"os"
	"path/filepath"
	"sort"
	"strconv"

	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/simtime"
)

// generatorVersion names the generator's identity: its random source, the
// tail plan's sizing, the order of a domain's and of a sample's draws. A
// change that makes any config yield other world bytes or another sample
// bumps it, so the old generator's caches and checkpoints are refused.
const generatorVersion = "v2"

// Fingerprint hashes the generator version and the generation-determining
// parts of the config: scale and seed, with the window and tail-operator
// plan every world shares. The build's parallelism is not part of the
// config: the world is byte-identical at any GOMAXPROCS.
func (c WorldConfig) Fingerprint() string {
	cc := c
	cc.fill()
	tails := make([]string, 0, len(tailOperators))
	for tld, n := range tailOperators {
		tails = append(tails, tld+":"+strconv.Itoa(n))
	}
	sort.Strings(tails)
	canon := fmt.Sprintf("%s scale=%.12g seed=%d window=%d..%d tail=%v",
		generatorVersion, cc.Scale, cc.Seed, int(simtime.GTLDStart), int(simtime.End), tails)
	sum := sha256.Sum256([]byte(canon))
	return hex.EncodeToString(sum[:8])
}

// Save writes the world's columnar index to path atomically, annotated
// with the config fingerprint so a later load can verify provenance.
func (w *World) Save(path string) error {
	return w.Index().SaveFile(path, map[string]string{
		"fingerprint": w.Config.Fingerprint(),
		"scale":       strconv.FormatFloat(w.Config.Scale, 'g', -1, 64),
		"seed":        strconv.FormatInt(w.Config.Seed, 10),
	})
}

// LoadWorld reads a saved world from path. The returned world serves
// every query from the loaded index; Cohorts are not persisted (use
// BuildCached, which re-plans them, if scenario derivation is needed).
// Close the world to release the mapping.
func LoadWorld(path string) (*World, map[string]string, error) {
	idx, meta, err := colstore.Load(path)
	if err != nil {
		return nil, nil, err
	}
	return &World{idx: idx}, meta, nil
}

// Close releases the world's resources (the file mapping, when the index
// was loaded from disk). The world must not be queried afterwards.
func (w *World) Close() error { return w.idx.Close() }

// BuildCached returns the world for cfg, loading it from dir when a
// matching save exists and building-then-saving it otherwise; dir "" builds
// without a cache. The cache key is the config fingerprint, so any change
// to scale, seed, window, or tail plan builds a distinct file. A corrupt or
// mismatched cache entry is rebuilt, never trusted.
func BuildCached(dir string, cfg WorldConfig) (*World, error) {
	if dir == "" {
		return Build(cfg)
	}
	cfg.fill()
	fp := cfg.Fingerprint()
	path := filepath.Join(dir, "world-"+fp+".rscw")
	idx, meta, err := colstore.Load(path)
	if err == nil {
		if meta["fingerprint"] == fp {
			cohorts, perr := planCohorts(cfg)
			if perr != nil {
				idx.Close()
				return nil, perr
			}
			return &World{Config: cfg, Cohorts: cohorts, idx: idx}, nil
		}
		idx.Close() // stale key scheme or hash collision: rebuild
	} else if !errors.Is(err, fs.ErrNotExist) {
		// A corrupt cache file is not fatal — rebuild and overwrite it.
		slog.Warn("tldsim: ignoring unreadable world cache", "path", path, "err", err)
	}
	w, err := Build(cfg)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	if err := w.Save(path); err != nil {
		return nil, err
	}
	return w, nil
}
