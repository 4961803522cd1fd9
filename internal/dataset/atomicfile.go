package dataset

import (
	"bufio"
	"errors"
	"os"
	"path/filepath"
)

// AtomicFile is a file on its way to durably replacing path: bytes are
// buffered into a temp file in path's directory, and Commit flushes,
// fsyncs, closes, renames the temp file over path and fsyncs the directory.
// A crash (or Abort) at any point before the rename leaves the previous
// file at path untouched, and after it the complete new one — never a torn
// mixture. It is the one durability primitive behind every durable write:
// the archive, each checkpoint chunk file, a single-process sweep's
// checkpoint.json (written once per sweep), the coordinator's ledger and
// the observatory's world file.
//
// Writeback starts as the file is written: after every writebackChunk
// bytes the kernel is asked to begin writing them to the disk (on Linux,
// sync_file_range with SYNC_FILE_RANGE_WRITE; elsewhere nothing), so the
// closing fsync finds most of a large file already on its way. The hint is
// advisory and its error ignored: Commit's fsync stays the one point at
// which the bytes are known durable. On Linux, too, the file a Commit
// replaces is freed after the rename, not inside it (holdReplaced).
type AtomicFile struct {
	path string
	tmp  *os.File
	bw   *bufio.Writer
	wb   writeback
	done bool
}

var errAtomicFileDone = errors.New("dataset: AtomicFile used after Commit or Abort")

// writebackChunk is how many bytes reach the temp file between two
// writeback hints: small enough that most of a paper_clean world (19 MiB)
// is on its way to the disk when the closing fsync starts.
const writebackChunk = 2 << 20

// writeback is the temp file as the buffer writes it: it counts the bytes
// that reached the file and hints their writeback a chunk at a time.
type writeback struct {
	f       *os.File
	written int64 // bytes written to f
	hinted  int64 // bytes before this offset have been hinted
}

func (w *writeback) Write(p []byte) (int, error) {
	n, err := w.f.Write(p)
	w.written += int64(n)
	if w.written-w.hinted >= writebackChunk {
		_ = startWriteback(w.f, w.hinted, w.written-w.hinted) // advisory
		w.hinted = w.written
	}
	return n, err
}

// CreateAtomic starts a replacement of path, buffering writes in bufSize
// bytes (as bufio.NewWriterSize).
func CreateAtomic(path string, bufSize int) (*AtomicFile, error) {
	tmp, err := os.CreateTemp(filepath.Dir(path), "."+filepath.Base(path)+".tmp-")
	if err != nil {
		return nil, err
	}
	f := &AtomicFile{path: path, tmp: tmp, wb: writeback{f: tmp}}
	f.bw = bufio.NewWriterSize(&f.wb, bufSize)
	return f, nil
}

// offset is how many bytes have been written: where the next write starts
// in the file.
func (f *AtomicFile) offset() int64 { return f.wb.written + int64(f.bw.Buffered()) }

// Write buffers p for the temp file.
func (f *AtomicFile) Write(p []byte) (int, error) {
	if f.done {
		return 0, errAtomicFileDone
	}
	return f.bw.Write(p)
}

// Commit makes everything written the durable contents of path. On any
// error the temp file is removed and path keeps its previous contents —
// except a failed directory fsync, which comes after the rename: the new
// file is in place but not known durable, and the error says so.
func (f *AtomicFile) Commit() error {
	if f.done {
		return errAtomicFileDone
	}
	f.done = true
	tmpName := f.tmp.Name()
	err := f.bw.Flush()
	if err == nil {
		err = f.tmp.Sync()
	}
	if cerr := f.tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		release := holdReplaced(f.path)
		err = os.Rename(tmpName, f.path)
		release()
	}
	if err != nil {
		os.Remove(tmpName)
		return err
	}
	return SyncDir(filepath.Dir(f.path))
}

// Abort discards the temp file, leaving path untouched. It is a no-op after
// Commit or a previous Abort, so it can be deferred.
func (f *AtomicFile) Abort() {
	if f.done {
		return
	}
	f.done = true
	f.tmp.Close()
	os.Remove(f.tmp.Name())
}

// WriteFileAtomic durably replaces path with data.
func WriteFileAtomic(path string, data []byte) error {
	// The default-sized buffer is bypassed by any payload larger than it, so
	// data reaches the temp file in one write either way.
	f, err := CreateAtomic(path, 0)
	if err != nil {
		return err
	}
	defer f.Abort()
	if _, err := f.Write(data); err != nil {
		return err
	}
	return f.Commit()
}

// SyncDir fsyncs a directory, which is what makes a rename into it
// durable. A rename that could not be made durable has not succeeded, so
// the error is the caller's to report.
func SyncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	d.Close()
	return err
}
