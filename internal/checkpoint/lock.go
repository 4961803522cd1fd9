package checkpoint

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// lockFile is the owner lockfile inside a checkpoint directory. Exactly one
// process may mutate a checkpoint directory's state at a time: two sweeps
// writing the same chunk files would silently replace each other's bytes
// and could mix shards of different runs into one archive. The lockfile
// makes the second process fail loudly instead.
//
// Ownership is an exclusive flock on the file, held for the owner's
// lifetime: the kernel drops it when the process dies, and it never
// outlives a boot. A LOCK file left behind by a crash therefore excludes
// no one, whatever PID it names — a restarted sweep is often the very same
// PID again.
const lockFile = "LOCK"

// lockInfo is the lockfile's JSON payload: enough to tell the operator who
// holds the directory. It takes no part in acquisition.
type lockInfo struct {
	// PID is the holder's process ID.
	PID int `json:"pid"`
	// Owner names the holding component ("resumable-sweep", "coordinator").
	Owner string `json:"owner"`
	// Fingerprint is the holder's sweep configuration fingerprint.
	Fingerprint string `json:"fingerprint"`
	// Acquired is the wall-clock acquisition time, for diagnostics only.
	Acquired string `json:"acquired"`
}

// errLockHeld is what tryLock returns when another open file holds the
// flock.
var errLockHeld = errors.New("lock held")

// AcquireLock claims exclusive mutation rights over the checkpoint
// directory, returning a release function. A lock held by a live process,
// this one included, is a hard error — concurrent mutation is exactly the
// corruption this guards against.
func (s *Store) AcquireLock(owner, fingerprint string) (release func() error, err error) {
	path := filepath.Join(s.dir, lockFile)
	for attempt := 0; attempt < 3; attempt++ {
		f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: lock: %w", err)
		}
		if err := tryLock(f); err != nil {
			f.Close()
			if errors.Is(err, errLockHeld) {
				held, _ := s.lockHolder()
				return nil, fmt.Errorf(
					"checkpoint: %s is locked by %s (pid %d, fingerprint %q); refusing concurrent mutation of the same checkpoint directory",
					s.dir, held.Owner, held.PID, held.Fingerprint)
			}
			return nil, fmt.Errorf("checkpoint: lock: %w", err)
		}
		// A release unlinks LOCK before it lets go of the flock. If the path
		// no longer names the file locked here, its owner released between
		// the open and the flock, and another process may hold the path's
		// new file: start over.
		if !namesFile(path, f) {
			f.Close()
			continue
		}
		info := lockInfo{
			PID: os.Getpid(), Owner: owner, Fingerprint: fingerprint,
			Acquired: time.Now().UTC().Format(time.RFC3339),
		}
		data, err := json.Marshal(info)
		if err == nil {
			err = f.Truncate(0)
		}
		if err == nil {
			_, err = f.WriteAt(append(data, '\n'), 0)
		}
		if err != nil {
			os.Remove(path)
			f.Close()
			return nil, fmt.Errorf("checkpoint: writing lock: %w", err)
		}
		return func() error {
			rmErr := os.Remove(path)
			if cerr := f.Close(); rmErr == nil || os.IsNotExist(rmErr) {
				return cerr
			}
			return rmErr
		}, nil
	}
	return nil, fmt.Errorf("checkpoint: could not acquire lock in %s", s.dir)
}

// namesFile reports whether path still names the open file f.
func namesFile(path string, f *os.File) bool {
	opened, err := f.Stat()
	if err != nil {
		return false
	}
	named, err := os.Stat(path)
	return err == nil && os.SameFile(opened, named)
}

// lockHolder reads the lockfile's payload.
func (s *Store) lockHolder() (lockInfo, bool) {
	var held lockInfo
	data, err := os.ReadFile(filepath.Join(s.dir, lockFile))
	if err != nil || json.Unmarshal(data, &held) != nil {
		return lockInfo{}, false
	}
	return held, true
}

// LockedBy reports the holder the lockfile names, if any — diagnostics for
// CLI error messages; it takes no part in acquisition, and a file left by a
// dead owner still names it.
func (s *Store) LockedBy() (owner string, pid int, ok bool) {
	held, ok := s.lockHolder()
	return held.Owner, held.PID, ok
}
