package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"testing"

	"securepki.org/registrarsec/internal/cmdtest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

var synthTLDs = []string{"com", "net", "org", "nl", "se"}

// synthDay is the day of a synthetic archive's k-th section: one a week.
func synthDay(k int) simtime.Day { return simtime.Date(2016, 1, 4) + simtime.Day(7*k) }

// synthRecord is domain i's record in section k of a synthetic archive.
// Every domain keeps its TLD and operator, and a DNSKEY or DS once observed
// stays: the shape of a sweep over a fixed sample of the world. The
// operators' sizes are skewed, so the CDFs have a head and a tail; some
// chains are broken and some signatures missing.
func synthRecord(i, k int) dataset.Record {
	h := uint64(i) + 0x9E3779B97F4A7C15 // splitmix64
	h = (h ^ h>>30) * 0xBF58476D1CE4E5B9
	h = (h ^ h>>27) * 0x94D049BB133111EB
	h ^= h >> 31
	r := int(h >> 17 % 100)
	op := fmt.Sprintf("dns%02d.example", r*r/100)
	keyAt := int(h >> 27 % 8)
	dsAt := keyAt + int(h>>31%4) - 1
	broken, expired := h>>37%13 == 0, h>>41%19 == 0
	rec := dataset.Record{
		Domain:   fmt.Sprintf("d%05d.%s", i, synthTLDs[h>>7%5]),
		TLD:      synthTLDs[h>>7%5],
		NSHosts:  []string{"ns1." + op, "ns2." + op},
		Operator: op,
	}
	rec.HasDNSKEY = k >= keyAt
	rec.HasRRSIG = rec.HasDNSKEY && !expired
	rec.HasDS = k >= dsAt
	rec.ChainValid = rec.HasDNSKEY && rec.HasDS && !broken && !expired
	return rec
}

// failed is rec as an unmeasured target.
func failed(rec dataset.Record) dataset.Record {
	return dataset.Record{Domain: rec.Domain, TLD: rec.TLD, NSHosts: rec.NSHosts, Operator: rec.Operator,
		Failed: true, FailReason: "timeout"}
}

// synthArchive writes one section per entry of sizes: section k holds the
// first sizes[k] domains (the population only grows), each as fail(i, k)
// decides, then three targets in .info that are never measured.
func synthArchive(t testing.TB, w *bufio.Writer, sizes []int, fail func(i, k int) bool) {
	t.Helper()
	for k, n := range sizes {
		synthSection(t, w, k, n, fail)
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
}

// synthSection writes section k of a synthetic archive with n domains.
func synthSection(t testing.TB, w *bufio.Writer, k, n int, fail func(i, k int) bool) {
	t.Helper()
	snap := &dataset.Snapshot{Day: synthDay(k), Records: make([]dataset.Record, 0, n+3)}
	for i := 0; i < n; i++ {
		rec := synthRecord(i, k)
		if fail(i, k) {
			rec = failed(rec)
		}
		snap.Records = append(snap.Records, rec)
	}
	for j := 0; j < 3; j++ {
		snap.Records = append(snap.Records, dataset.Record{
			Domain: fmt.Sprintf("gone%d.info", j), TLD: "info", Failed: true, FailReason: "lame"})
	}
	snap.Canonicalize()
	if err := snap.WriteArchiveSection(w); err != nil {
		t.Fatal(err)
	}
}

// cleanSizes has a last section of more than two aggregation shards' rows.
var cleanSizes = []int{1000, 1200, 1500, 33000}

// cleanArchive is an undamaged archive whose only Failed records are
// targets not yet measured: a domain failing the first day it is swept,
// and the .info targets no day measures.
func cleanArchive(t testing.TB) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	synthArchive(t, w, cleanSizes, func(i, k int) bool {
		first := k == 0 || i >= cleanSizes[k-1]
		return first && k < len(cleanSizes)-1 && i%31 == 7
	})
	return buf.Bytes()
}

// damagedArchive is cleanArchive with one section's trailer torn off, one
// byte flipped in another, the first section appended again, and a
// section cut off mid-line at the end.
func damagedArchive(t testing.TB) []byte {
	sections := strings.SplitAfter(string(cleanArchive(t)), "#end")
	// sections[k] ends with section k's "#end"; its trailer's tail opens
	// sections[k+1].
	torn := strings.TrimSuffix(sections[1], "#end")
	rest := sections[2][strings.IndexByte(sections[2], '\n')+1:]
	flip := strings.Index(rest, "\nd00042.")
	if flip < 0 {
		t.Fatal("no record to damage")
	}
	b := []byte(sections[0] + torn + rest)
	b[len(sections[0])+len(torn)+flip+2] ^= 0x01
	out := string(b) + strings.Join(sections[3:], "")
	first := sections[0] + sections[1][:strings.IndexByte(sections[1], '\n')+1]
	out += first
	partial := strings.SplitAfter(first, "\n")
	out += "#snapshot\t" + synthDay(len(cleanSizes)).String() + "\t20\n" + partial[1] + partial[2] + partial[3][:10]
	return []byte(out)
}

// measuredThenFailedArchive holds domains measured and later Failed: some
// fail in the middle section only, some in the last.
func measuredThenFailedArchive(t testing.TB) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	synthArchive(t, w, []int{40, 40, 40}, func(i, k int) bool {
		return (k == 1 && i%7 == 3) || (k == 2 && i%11 == 5)
	})
	return buf.Bytes()
}

// descendingArchive holds two verified sections, the later day first. Its
// earlier day cannot be answered from state folded after it, so the report
// refuses it.
func descendingArchive(t testing.TB) []byte {
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)
	never := func(int, int) bool { return false }
	synthSection(t, w, 1, 40, never)
	synthSection(t, w, 0, 40, never)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// runReport runs regsec-report -archive over archive and renders its exit
// code, stdout and stderr as one text.
func runReport(t *testing.T, archive []byte) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "scans.tsv")
	if err := os.WriteFile(path, archive, 0o644); err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	cmd := cmdtest.Command("-archive", path)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	code := 0
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return fmt.Sprintf("exit %d\n-- stdout --\n%s-- stderr --\n%s", code, stdout.String(), stderr.String())
}

// TestArchiveReportGolden holds regsec-report -archive's exit code, stdout
// and stderr to testdata/<case>.golden over deterministic archives.
func TestArchiveReportGolden(t *testing.T) {
	for _, tc := range []struct {
		name    string
		archive func(testing.TB) []byte
	}{
		{"clean", cleanArchive},
		{"damaged", damagedArchive},
		{"measured-then-failed", measuredThenFailedArchive},
		{"descending", descendingArchive},
	} {
		t.Run(tc.name, func(t *testing.T) {
			got := runReport(t, tc.archive(t))
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("report differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestArchiveReportHeapFlat: the report holds one section at a time, so its
// peak RSS over an archive ten times longer stays within 8 MB of the
// shorter one's.
func TestArchiveReportHeapFlat(t *testing.T) {
	if runtime.GOOS != "linux" {
		t.Skip("ru_maxrss is in kilobytes on Linux only")
	}
	if testing.Short() {
		t.Skip("writes a 60-day archive")
	}
	peak := func(days int) int64 {
		path := filepath.Join(t.TempDir(), "scans.tsv")
		f, err := os.Create(path)
		if err != nil {
			t.Fatal(err)
		}
		sizes := make([]int, days)
		for k := range sizes {
			sizes[k] = 4000
		}
		synthArchive(t, bufio.NewWriter(f), sizes, func(int, int) bool { return false })
		if err := f.Close(); err != nil {
			t.Fatal(err)
		}
		cmd := cmdtest.Command("-archive", path)
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("%v\n%s", err, out)
		}
		return cmd.ProcessState.SysUsage().(*syscall.Rusage).Maxrss << 10
	}
	short, long := peak(6), peak(60)
	t.Logf("peak RSS: 6 days %.1f MB, 60 days %.1f MB", float64(short)/(1<<20), float64(long)/(1<<20))
	if long > short+8<<20 {
		t.Errorf("peak RSS grows with the archive: 6 days %.1f MB, 60 days %.1f MB",
			float64(short)/(1<<20), float64(long)/(1<<20))
	}
}
