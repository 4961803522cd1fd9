// Package profdump wires the standard -cpuprofile/-memprofile flags into
// the command-line tools: one call starts CPU profiling, the returned stop
// function flushes both profiles. Keeping it in one place guarantees every
// command flushes profiles on every exit path (the tools return an exit
// code from run() instead of calling os.Exit mid-flight for exactly this
// reason).
package profdump

import (
	"fmt"
	"log/slog"
	"os"
	"runtime"
	"runtime/pprof"
)

// Start begins CPU profiling when cpuPath is non-empty. The returned stop
// function ends the CPU profile and, when memPath is non-empty, writes a
// heap profile (after a GC, so it reflects live objects). stop is safe to
// call when both paths are empty; failures while writing the profiles are
// logged rather than lost.
func Start(cpuPath, memPath string) (stop func(), err error) {
	var cpuFile *os.File
	if cpuPath != "" {
		cpuFile, err = os.Create(cpuPath)
		if err != nil {
			return nil, fmt.Errorf("profdump: %w", err)
		}
		if err := pprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, fmt.Errorf("profdump: starting CPU profile: %w", err)
		}
	}
	return func() {
		if cpuFile != nil {
			pprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				slog.Error("profdump: closing CPU profile", "path", cpuPath, "err", err)
			}
		}
		if memPath != "" {
			f, err := os.Create(memPath)
			if err != nil {
				slog.Error("profdump: creating heap profile", "path", memPath, "err", err)
				return
			}
			runtime.GC() // materialize final live-heap state
			if err := pprof.WriteHeapProfile(f); err != nil {
				slog.Error("profdump: writing heap profile", "path", memPath, "err", err)
			}
			if err := f.Close(); err != nil {
				slog.Error("profdump: closing heap profile", "path", memPath, "err", err)
			}
		}
	}, nil
}
