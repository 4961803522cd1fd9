package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"syscall"
	"testing"

	"securepki.org/registrarsec/internal/archivetest"
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
// and the .info targets no day measures. It is built once; callers do not
// write to it.
func cleanArchive(t testing.TB) []byte {
	if cleanArchiveBytes == nil {
		var buf bytes.Buffer
		synthArchive(t, bufio.NewWriter(&buf), cleanSizes, func(i, k int) bool {
			first := k == 0 || i >= cleanSizes[k-1]
			return first && k < len(cleanSizes)-1 && i%31 == 7
		})
		cleanArchiveBytes = buf.Bytes()
	}
	return cleanArchiveBytes
}

var cleanArchiveBytes []byte

// damagedArchive is cleanArchive with one section's member cut short, one
// byte flipped in another's, the first section appended again, and a
// member cut short at the end. Before the record lines front-coded their
// domains the flipped byte stopped its member's decoder early ("flate:
// corrupt input before offset 3754", at byte 7904), the rest of that member
// was a stray run of its own (byte 11668, line 1709) and the last two
// quarantines sat at bytes 167333 and 172261 (lines 34715 and 35720); since,
// the flip lands in a literal, so only the member's checksum catches it.
func damagedArchive(t testing.TB) []byte {
	members := archivetest.Members(t, cleanArchive(t))
	torn := members[1][:len(members[1])/2]
	flipped := bytes.Clone(members[2])
	flipped[len(flipped)/2] ^= 0x01
	var partial bytes.Buffer
	w := bufio.NewWriter(&partial)
	synthSection(t, w, len(cleanSizes), 17, func(int, int) bool { return false })
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	return slices.Concat(members[0], torn, flipped, members[3], members[0], partial.Bytes()[:partial.Len()/2])
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
	archivetest.Write(t, path, archive)
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
			want := archivetest.Read(t, filepath.Join("testdata", tc.name+".golden"))
			if got != string(want) {
				t.Errorf("report differs from testdata/%s.golden\n--- got ---\n%s--- want ---\n%s", tc.name, got, want)
			}
		})
	}
}

// TestArchiveReportRefusesText: an archive in the text form, as written
// before each section became a gzip member, is refused whole: the report
// exits non-zero, saying why, and prints no figures.
func TestArchiveReportRefusesText(t *testing.T) {
	zr, err := gzip.NewReader(bytes.NewReader(measuredThenFailedArchive(t)))
	if err != nil {
		t.Fatal(err)
	}
	text, err := io.ReadAll(zr)
	if err != nil {
		t.Fatal(err)
	}
	got := runReport(t, text)
	if !strings.HasPrefix(got, "exit 1\n-- stdout --\n-- stderr --\n") || !strings.Contains(got, dataset.ErrTextArchive.Error()) {
		t.Errorf("a text archive reports\n%s", got)
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
