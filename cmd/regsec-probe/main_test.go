package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/cmdtest"
)

// TestMain makes the test binary regsec-probe when the tests re-execute it.
func TestMain(m *testing.M) { cmdtest.Main(m, func() int { main(); return 0 }) }

// TestFlagDocs: README's Tools row and the Usage comment name the flags -h
// prints, each once, and no other.
func TestFlagDocs(t *testing.T) { cmdtest.CheckFlagDocs(t, "regsec-probe") }

// TestProbeGolden holds regsec-probe -notes's stdout — Tables 2, 3 and 4,
// their headlines and every probe note — byte for byte to
// testdata/probe.golden, run at the test's GOMAXPROCS.
func TestProbeGolden(t *testing.T) {
	cmd := cmdtest.Command("-notes")
	cmd.Env = append(cmd.Env, fmt.Sprintf("GOMAXPROCS=%d", runtime.GOMAXPROCS(0)))
	got, err := cmd.Output()
	if err != nil {
		t.Fatal(err)
	}
	want := archivetest.Read(t, filepath.Join("testdata", "probe.golden"))
	if string(got) != string(want) {
		t.Errorf("output differs from testdata/probe.golden\n--- got ---\n%s--- want ---\n%s", got, want)
	}
}
