package main

import (
	"os"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/cmdtest"
)

// TestMain makes the test binary regsec-check when the tests re-execute it.
func TestMain(m *testing.M) { cmdtest.Main(m, func() int { main(); return 0 }) }

// The demonstration hierarchy holds one domain per misconfiguration class
// the paper's measurements surface, and -demo must report each of them.
func TestDemoReportsEveryFindingClass(t *testing.T) {
	cmd := cmdtest.Command("-demo")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("regsec-check -demo: %v\n%s", err, out)
	}
	for _, code := range []string{
		"CHAIN_OK", "UNSIGNED", "PARTIAL_NO_DS", "DS_MATCHES_NO_KEY", "RRSIG_EXPIRED", "DNSKEY_WRONG_SIGNER",
	} {
		if !strings.Contains(string(out), code) {
			t.Errorf("-demo reported no %s finding:\n%s", code, out)
		}
	}
}

// TestFlagDocs: README's Tools row and the Usage comment name the flags -h
// prints, each once, and no other.
func TestFlagDocs(t *testing.T) { cmdtest.CheckFlagDocs(t, "regsec-check") }
