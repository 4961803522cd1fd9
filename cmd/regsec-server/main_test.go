package main

import (
	"testing"

	"securepki.org/registrarsec/internal/cmdtest"
)

// TestMain makes the test binary regsec-server when the tests re-execute it.
func TestMain(m *testing.M) { cmdtest.Main(m, func() int { main(); return 0 }) }

// TestFlagDocs: README's Tools row and the Usage comment name the flags -h
// prints, each once, and no other.
func TestFlagDocs(t *testing.T) { cmdtest.CheckFlagDocs(t, "regsec-server") }
