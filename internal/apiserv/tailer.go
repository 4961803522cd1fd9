package apiserv

// The tailer is the write side of the daemon: it follows the checksummed
// scan archive, folds each newly completed section into the colstore
// ingester, and commits. One commit is:
//
//	freeze the ingester → publish the frozen index to readers (atomic
//	pointer swap) → save the world with the ingest cursor in its META
//	section, deflated into one gzip member (atomic rename)
//
// The world file is the only file a commit writes and the only one resume
// reads.
//
// Members only: the member wraps exactly the bytes colstore.Index.Save
// writes, so zcat of the world file prints a colstore world, and anything
// else — a raw world as written before worlds were deflated included — is
// refused, and the derived world re-ingested from the archive. Nothing
// reads the observatory's world in place — resume deep-copies it into a
// heap ingester — so deflating it costs the daemon no mmap path, only one
// deflate per commit and one inflate per start.
//
// Commits land only on tail-event boundaries, where the ingested state is
// a pure function of the archive prefix before the committed offset — so
// a SIGKILL between any two instructions leaves a world file some clean
// prefix produced, and the next start replays the remainder to a
// byte-identical state (the equivalence oracle in colstore's ingest
// tests).
//
// Damage in the archive never stops ingest: torn or corrupt sections are
// quarantined (dataset.ScanArchiveFile) and counted, and an archive that
// shrank — rotation or operator intervention — resets the daemon to a
// clean full re-ingest.

import (
	"bufio"
	"compress/gzip"
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"runtime/debug"
	"strconv"
	"time"

	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// cursor is how far ingest has committed into the archive. Every commit
// saves it in the world file's META section, and resume reads it back.
type cursor struct {
	offset      int64       // the archive offset every committed section ends before
	sections    int         // sections folded into the world
	quarantined int         // damaged archive pieces skipped
	lastDay     simtime.Day // the last folded section's day, simtime.Never before the first
}

// noCursor is the cursor of an empty world.
var noCursor = cursor{lastDay: simtime.Never}

// META keys carrying the ingest cursor inside the world file.
const (
	metaOffset      = "ingest_offset"
	metaSections    = "ingest_sections"
	metaQuarantined = "ingest_quarantined"
	metaLastDay     = "ingest_last_day"
)

// meta is the cursor as the world file's META section carries it.
func (c cursor) meta() map[string]string {
	return map[string]string{
		metaOffset:      strconv.FormatInt(c.offset, 10),
		metaSections:    strconv.Itoa(c.sections),
		metaQuarantined: strconv.Itoa(c.quarantined),
		metaLastDay:     lastDayString(c.lastDay),
	}
}

// runTailer is the ingest loop Run restarts on failure. It returns nil
// only once ctx is canceled, and a panic as an error.
func (s *Server) runTailer(ctx context.Context) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v\n%s", r, debug.Stack())
		}
	}()
	if err := s.resumeOnce(); err != nil {
		return err
	}
	interval := s.cfg.PollInterval
	if interval <= 0 {
		interval = 500 * time.Millisecond
	}
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		if err := s.pollOnce(); err != nil {
			return err
		}
		select {
		case <-ctx.Done():
			return nil
		case <-t.C:
		}
	}
}

// resumeOnce restores the committed world and cursor, exactly once per
// process. The world file is loaded (loadWorld), deep-copied into a fresh
// ingester, and closed again before any reader can hold it — the served
// indexes are always heap-backed frozen views.
func (s *Server) resumeOnce() error {
	s.ingMu.Lock()
	defer s.ingMu.Unlock()
	if s.ing != nil {
		return nil
	}
	ing, cur := colstore.NewIngester(), noCursor

	idx, meta, err := loadWorld(s.cfg.WorldPath)
	switch {
	case err == nil:
		resumed, resumedCur, rerr := resumeFromWorld(idx, meta)
		closeErr := idx.Close()
		switch {
		case rerr != nil:
			slog.Warn("apiserv: world is not resumable; re-ingesting from scratch", "world", s.cfg.WorldPath, "err", rerr)
		case closeErr != nil:
			return closeErr
		default:
			ing, cur = resumed, resumedCur
			slog.Info("apiserv: resumed world", "world", s.cfg.WorldPath, "domains", ing.Len(),
				"sections", cur.sections, "offset", cur.offset)
		}
	case os.IsNotExist(err):
		// First boot: empty world, ingest everything.
	default:
		slog.Warn("apiserv: cannot load world; re-ingesting from scratch", "world", s.cfg.WorldPath, "err", err)
	}

	s.ing = ing
	s.cur = cur
	s.publish(s.ing.Freeze(), cur.lastDay)
	return nil
}

// loadWorld reads a committed world file: one gzip member around a
// colstore world, inflated into memory. Anything else, or a member that is
// cut, damaged or followed by any other byte, is refused.
func loadWorld(path string) (*colstore.Index, map[string]string, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	zr, err := gzip.NewReader(br)
	if err != nil {
		return nil, nil, err
	}
	zr.Multistream(false)
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, nil, err
	}
	switch _, err := br.ReadByte(); {
	case err == nil:
		return nil, nil, errors.New("bytes after the world's gzip member")
	case err != io.EOF:
		return nil, nil, err
	}
	return colstore.LoadBytes(raw)
}

// resumeFromWorld reconstructs the ingester and cursor from a loaded
// world file.
func resumeFromWorld(idx *colstore.Index, meta map[string]string) (*colstore.Ingester, cursor, error) {
	offset, err := strconv.ParseInt(meta[metaOffset], 10, 64)
	if err != nil || offset < 0 {
		return nil, cursor{}, fmt.Errorf("bad %s %q", metaOffset, meta[metaOffset])
	}
	sections, err := strconv.Atoi(meta[metaSections])
	if err != nil || sections < 0 {
		return nil, cursor{}, fmt.Errorf("bad %s %q", metaSections, meta[metaSections])
	}
	quarantined, err := strconv.Atoi(meta[metaQuarantined])
	if err != nil || quarantined < 0 {
		return nil, cursor{}, fmt.Errorf("bad %s %q", metaQuarantined, meta[metaQuarantined])
	}
	lastDay := simtime.Never
	if raw := meta[metaLastDay]; raw != "" {
		if lastDay, err = simtime.Parse(raw); err != nil {
			return nil, cursor{}, fmt.Errorf("bad %s %q", metaLastDay, raw)
		}
	}
	ing, err := colstore.NewIngesterFromIndex(idx)
	if err != nil {
		return nil, cursor{}, err
	}
	return ing, cursor{offset: offset, sections: sections, quarantined: quarantined, lastDay: lastDay}, nil
}

// pollOnce consumes whatever complete tail events have appeared since the
// committed offset, one section in memory at a time, committing after
// every event.
func (s *Server) pollOnce() error {
	s.ingMu.Lock()
	defer s.ingMu.Unlock()

	err := dataset.ScanArchiveFile(s.cfg.ArchivePath, s.cur.offset, s.ingestLocked)
	if errors.Is(err, dataset.ErrTailTruncated) {
		// The archive was rotated or rewritten underneath us: drop
		// everything, commit the empty state, and re-ingest the new file
		// from the top within this same poll.
		slog.Warn("apiserv: archive shrank; resetting to a full re-ingest", "offset", s.cur.offset, "err", err)
		s.ing = colstore.NewIngester()
		s.cur = noCursor
		if err := s.commitLocked(); err != nil {
			return err
		}
		err = dataset.ScanArchiveFile(s.cfg.ArchivePath, 0, s.ingestLocked)
	}
	if err != nil && !os.IsNotExist(err) {
		return err
	}
	s.markPolled()
	return nil
}

// ingestLocked folds one tail event into the ingest state, advances the
// cursor past it and commits. Caller holds ingMu.
func (s *Server) ingestLocked(ev dataset.TailEvent) error {
	if d := ev.Damage; d != nil {
		slog.Warn("apiserv: archive damage quarantined", "day", d.Day, "offset", d.Offset, "reason", d.Reason)
		s.cur.quarantined++
	} else {
		skipped, err := s.ing.AppendDay(ev.Snap)
		if err != nil {
			return err
		}
		if skipped > 0 {
			slog.Info("apiserv: failed records skipped", "day", ev.Snap.Day, "offset", ev.At.Offset, "skipped", skipped)
		}
		s.cur.sections++
		s.cur.lastDay = ev.Snap.Day
	}
	s.cur.offset = ev.End
	return s.commitLocked()
}

// commitLocked publishes the current ingest state and saves it with its
// cursor. Caller holds ingMu.
func (s *Server) commitLocked() error {
	idx := s.ing.Freeze()
	s.publish(idx, s.cur.lastDay)
	return saveWorld(s.cfg.WorldPath, idx, s.cur.meta())
}

// saveWorld durably replaces path with one gzip member, written by the
// archive's own dataset.MemberWriter, whose contents are what idx.Save
// writes.
func saveWorld(path string, idx *colstore.Index, meta map[string]string) error {
	f, err := dataset.CreateAtomic(path, 64<<10)
	if err != nil {
		return err
	}
	defer f.Abort()
	zw := dataset.NewMemberWriter(f)
	if err := idx.Save(zw, meta); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return f.Commit()
}
