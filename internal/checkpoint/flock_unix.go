//go:build unix

package checkpoint

import (
	"errors"
	"os"
	"syscall"
)

// tryLock takes an exclusive flock on f without waiting: errLockHeld when
// another open file holds it.
func tryLock(f *os.File) error {
	err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB)
	if errors.Is(err, syscall.EWOULDBLOCK) {
		return errLockHeld
	}
	return err
}
