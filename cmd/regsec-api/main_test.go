package main

import (
	"bytes"
	"compress/gzip"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"syscall"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/cmdtest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// TestMain lets the tests run the command itself: re-executed with
// REGSEC_RUN_MAIN set, the test binary is regsec-api.
func TestMain(m *testing.M) {
	if os.Getenv("REGSEC_RUN_MAIN") == "1" {
		os.Exit(run())
	}
	os.Exit(m.Run())
}

// daemon is a running regsec-api.
type daemon struct {
	t      *testing.T
	cmd    *exec.Cmd
	stderr *cmdtest.Buffer
	url    string
}

var servingOn = regexp.MustCompile(`serving (http://127\.0\.0\.1:\d+) `)

// startDaemon starts regsec-api on a free port and waits until it announces
// its address.
func startDaemon(t *testing.T, args ...string) *daemon {
	t.Helper()
	d := &daemon{t: t, cmd: cmdtest.Command(append(args, "-listen", "127.0.0.1:0")...), stderr: &cmdtest.Buffer{}}
	d.cmd.Stderr = d.stderr
	if err := d.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.cmd.Process.Kill() })
	d.await("its address", func() bool {
		m := servingOn.FindStringSubmatch(d.stderr.String())
		if m != nil {
			d.url = m[1]
		}
		return m != nil
	})
	return d
}

// await polls cond for up to 20 s.
func (d *daemon) await(what string, cond func() bool) {
	d.t.Helper()
	for deadline := time.Now().Add(20 * time.Second); !cond(); time.Sleep(20 * time.Millisecond) {
		if time.Now().After(deadline) {
			d.t.Fatalf("regsec-api never showed %s:\n%s", what, d.stderr)
		}
	}
}

// get returns the body of a 200 response to path, or nil.
func (d *daemon) get(path string) []byte {
	resp, err := http.Get(d.url + path)
	if err != nil {
		return nil
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.StatusCode != http.StatusOK {
		return nil
	}
	return body
}

// ingestStatus is what /v1/status says of the daemon's ingest.
type ingestStatus struct {
	Sections    int `json:"sections"`
	Quarantined int `json:"quarantined"`
}

func (d *daemon) status() (st ingestStatus, ok bool) {
	body := d.get("/v1/status")
	return st, body != nil && json.Unmarshal(body, &st) == nil
}

// awaitSections waits until the daemon has ingested n sections.
func (d *daemon) awaitSections(n int) {
	d.t.Helper()
	d.await("its sections", func() bool {
		st, ok := d.status()
		return ok && st.Sections == n
	})
}

// stop sends SIGTERM and requires a clean exit.
func (d *daemon) stop() {
	d.t.Helper()
	d.cmd.Process.Signal(syscall.SIGTERM)
	if err := d.cmd.Wait(); err != nil {
		d.t.Fatalf("regsec-api on SIGTERM: %v\n%s", err, d.stderr)
	}
}

// fourDayArchive writes the archive of a four-day, four-shard sweep of 120
// domains to path.
func fourDayArchive(t *testing.T, path string) []byte {
	t.Helper()
	spec := &dsweep.WorldSpec{ScaleDiv: 4000, Sample: 120}
	days := []simtime.Day{simtime.Date(2016, 6, 1), simtime.Date(2016, 8, 1), simtime.Date(2016, 10, 1), simtime.End}
	plan := spec.PlanFor(days, 4, scan.DefaultChunk)
	world, err := tldsim.Build(plan.Spec.WorldConfig())
	if err != nil {
		t.Fatal(err)
	}
	var archive bytes.Buffer
	if err := plan.Sweep(world, nil, dataset.SpillOptions{}, nil).RunStream(context.Background(), plan.Days,
		func(_ simtime.Day, sw *dataset.SpillWriter) error { return sw.WriteSectionTo(&archive) }); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, archive.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return archive.Bytes()
}

// memberEnds returns the offset just past each gzip member of archive.
func memberEnds(t *testing.T, archive []byte) []int {
	t.Helper()
	r := bytes.NewReader(archive)
	var zr gzip.Reader
	var ends []int
	for r.Len() > 0 {
		if err := zr.Reset(r); err != nil {
			t.Fatal(err)
		}
		zr.Multistream(false)
		if _, err := io.Copy(io.Discard, &zr); err != nil {
			t.Fatal(err)
		}
		ends = append(ends, len(archive)-r.Len())
	}
	return ends
}

// appendFile appends data to the file at path.
func appendFile(t *testing.T, path string, data []byte) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(data); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestKilledMidIngestRecovers is the observatory daemon's crash drill with
// the real binary. A clean daemon ingests a four-section archive in one
// pass. A second one ingests its first two sections, commits them and is
// SIGKILLed; restarted over the same prefix, it watches the archive grow by
// appending in two pieces, the first cut halfway through the third
// section's member, and must never consume the partial member. Its world file
// and its Table 1 must then equal the clean daemon's, byte for byte.
func TestKilledMidIngestRecovers(t *testing.T) {
	dir := t.TempDir()
	archive := filepath.Join(dir, "archive.tsv")
	data := fourDayArchive(t, archive)

	cleanWorld := filepath.Join(dir, "clean.world")
	clean := startDaemon(t, "-archive", archive, "-world", cleanWorld)
	clean.awaitSections(4)
	clean.await("readiness", func() bool { return clean.get("/readyz") != nil })
	cleanTable := clean.get("/v1/table1")
	if cleanTable == nil {
		t.Fatal("the clean daemon served no Table 1")
	}
	clean.stop()

	// Each section is one gzip member.
	ends := memberEnds(t, data)
	if len(ends) != 4 {
		t.Fatalf("the archive holds %d members, want 4", len(ends))
	}
	prefix := ends[1]
	chaos, chaosWorld := filepath.Join(dir, "chaos.tsv"), filepath.Join(dir, "chaos.world")
	if err := os.WriteFile(chaos, data[:prefix], 0o644); err != nil {
		t.Fatal(err)
	}
	d := startDaemon(t, "-archive", chaos, "-world", chaosWorld)
	d.awaitSections(2)
	d.cmd.Process.Signal(syscall.SIGKILL)
	d.cmd.Wait()

	d = startDaemon(t, "-archive", chaos, "-world", chaosWorld, "-poll", "200ms")
	d.await("readiness", func() bool { return d.get("/readyz") != nil })
	// Halfway through the third section's member.
	cut := prefix + (ends[2]-prefix)/2
	appendFile(t, chaos, data[prefix:cut])
	time.Sleep(time.Second) // several polls at the partial member
	if st, ok := d.status(); !ok || st.Sections != 2 || st.Quarantined != 0 {
		t.Fatalf("at the partial member: %+v (read %v), want 2 sections and nothing quarantined\n%s", st, ok, d.stderr)
	}
	appendFile(t, chaos, data[cut:])
	if grown, err := os.ReadFile(chaos); err != nil || !bytes.Equal(grown, data) {
		t.Fatalf("the grown archive is not the archive (%v)", err)
	}
	d.awaitSections(4)
	chaosTable := d.get("/v1/table1")
	d.stop()

	if !bytes.Equal(chaosTable, cleanTable) {
		t.Errorf("Table 1 after the kill and the growth differs from the clean pass:\n%s\nclean:\n%s", chaosTable, cleanTable)
	}
	cleanBytes, err := os.ReadFile(cleanWorld)
	if err != nil {
		t.Fatal(err)
	}
	chaosBytes, err := os.ReadFile(chaosWorld)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(chaosBytes, cleanBytes) {
		t.Error("the recovered world file differs from the clean pass's")
	}
}

// TestFlagDocs: README's Tools row and the Usage comment name the flags -h
// prints, each once, and no other.
func TestFlagDocs(t *testing.T) { cmdtest.CheckFlagDocs(t, "regsec-api") }
