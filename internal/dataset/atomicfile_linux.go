//go:build linux && !arm

package dataset

import (
	"os"
	"syscall"
)

// syncFileRangeWrite is SYNC_FILE_RANGE_WRITE: start writeback of the
// range's dirty pages, wait for none of them.
const syncFileRangeWrite = 2

// startWriteback asks the kernel to start writing n bytes of f, from off,
// back to the disk, without waiting for them.
var startWriteback = func(f *os.File, off, n int64) error {
	return syscall.SyncFileRange(int(f.Fd()), off, n, syncFileRangeWrite)
}

// holdReplaced opens the regular file at path, if there is one, before a
// rename replaces it, and returns what lets it go. A file unlinked while
// open keeps its blocks until its last close, so the kernel frees them —
// some 7 ms for a 19 MiB world on ext4 — on a goroutine of their own
// instead of inside the rename.
func holdReplaced(path string) (release func()) {
	if fi, err := os.Lstat(path); err != nil || !fi.Mode().IsRegular() {
		return func() {}
	}
	old, err := os.Open(path)
	if err != nil {
		return func() {}
	}
	return func() { go old.Close() }
}
