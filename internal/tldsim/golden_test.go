package tldsim

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSavedWorldGoldenDigests pins the bytes of a saved world — generator
// draws, intern order, section framing, CRCs — to digests computed before
// the world became one pointer-free representation. Worker-count
// invariance says two builds agree with each other; this says they agree
// with every world file already on disk.
func TestSavedWorldGoldenDigests(t *testing.T) {
	golden := readGoldenDigests(t, filepath.Join("testdata", "world_digests.txt"))
	cases := []struct {
		key   string
		build func(workers int) (*World, error)
	}{
		{"build-divisor4000-seed1", func(workers int) (*World, error) {
			return Build(WorldConfig{Scale: 1.0 / 4000, Seed: 1, Workers: workers})
		}},
		{"build-divisor4000-seed7", func(workers int) (*World, error) {
			return Build(WorldConfig{Scale: 1.0 / 4000, Seed: 7, Workers: workers})
		}},
		{"gtld-incentives-divisor4000-seed1", func(workers int) (*World, error) {
			return BuildScenario(GTLDIncentives, WorldConfig{Scale: 1.0 / 4000, Seed: 1, Workers: workers})
		}},
	}
	for _, tc := range cases {
		want, ok := golden[tc.key]
		if !ok {
			t.Errorf("%s: no golden digest checked in", tc.key)
		}
		for _, workers := range []int{1, 8} {
			w, err := tc.build(workers)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "world.rscw")
			if err := w.Save(path); err != nil {
				t.Fatal(err)
			}
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(data)
			if got := hex.EncodeToString(sum[:]); got != want {
				t.Errorf("%s at %d workers: saved world hashes to %s, golden %s — the world format or the generator drifted",
					tc.key, workers, got, want)
			}
		}
	}
}

// readGoldenDigests parses "key sha256" lines; '#' starts a comment.
func readGoldenDigests(t *testing.T, path string) map[string]string {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		key, sum, ok := strings.Cut(line, " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", path, line)
		}
		out[key] = strings.TrimSpace(sum)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
