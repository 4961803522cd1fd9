package main

import (
	"os"
	"testing"

	"securepki.org/registrarsec/internal/cmdtest"
)

// TestMain lets the test run the command itself: re-executed with
// REGSEC_RUN_MAIN set, the test binary is regsec-server.
func TestMain(m *testing.M) {
	if os.Getenv("REGSEC_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// TestFlagDocs: README's Tools row and the Usage comment name the flags -h
// prints, each once, and no other.
func TestFlagDocs(t *testing.T) { cmdtest.CheckFlagDocs(t, "regsec-server") }
