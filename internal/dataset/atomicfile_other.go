//go:build !linux || arm

package dataset

import "os"

// startWriteback has no portable form: the closing fsync writes
// everything back.
var startWriteback = func(f *os.File, off, n int64) error { return nil }

// holdReplaced holds nothing: a rename over an open file fails on some
// platforms, so the replaced file is freed inside the rename.
func holdReplaced(string) (release func()) { return func() {} }
