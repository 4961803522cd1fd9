package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/cmdtest"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/dsweep"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// TestMain makes the test binary regsec-api when the tests re-execute it.
func TestMain(m *testing.M) { cmdtest.Main(m, run) }

var servingOn = regexp.MustCompile(`serving (http://127\.0\.0\.1:\d+) `)

// ingestStatus is what /v1/status says of the daemon's ingest.
type ingestStatus struct {
	Sections    int `json:"sections"`
	Quarantined int `json:"quarantined"`
}

func status(d *cmdtest.Process) (st ingestStatus, ok bool) {
	body := d.Get("/v1/status")
	return st, body != nil && json.Unmarshal(body, &st) == nil
}

// awaitSections waits until the daemon has ingested n sections.
func awaitSections(d *cmdtest.Process, n int) {
	d.Await("its sections", func() bool {
		st, ok := status(d)
		return ok && st.Sections == n
	})
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
	archivetest.Write(t, path, archive.Bytes())
	return archive.Bytes()
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
	clean := cmdtest.StartDaemon(t, servingOn, "-archive", archive, "-world", cleanWorld)
	awaitSections(clean, 4)
	clean.Await("readiness", func() bool { return clean.Get("/readyz") != nil })
	cleanTable := clean.Get("/v1/table1")
	if cleanTable == nil {
		t.Fatal("the clean daemon served no Table 1")
	}
	clean.Stop()

	// Each section is one gzip member.
	members := archivetest.Members(t, data)
	if len(members) != 4 {
		t.Fatalf("the archive holds %d members, want 4", len(members))
	}
	prefix := len(members[0]) + len(members[1])
	chaos, chaosWorld := filepath.Join(dir, "chaos.tsv"), filepath.Join(dir, "chaos.world")
	archivetest.Write(t, chaos, data[:prefix])
	d := cmdtest.StartDaemon(t, servingOn, "-archive", chaos, "-world", chaosWorld)
	awaitSections(d, 2)
	d.Kill()

	d = cmdtest.StartDaemon(t, servingOn, "-archive", chaos, "-world", chaosWorld, "-poll", "200ms")
	d.Await("readiness", func() bool { return d.Get("/readyz") != nil })
	// Halfway through the third section's member.
	cut := prefix + len(members[2])/2
	archivetest.Append(t, chaos, data[prefix:cut])
	time.Sleep(time.Second) // several polls at the partial member
	if st, ok := status(d); !ok || st.Sections != 2 || st.Quarantined != 0 {
		t.Fatalf("at the partial member: %+v (read %v), want 2 sections and nothing quarantined\n%s", st, ok, d.Stderr)
	}
	archivetest.Append(t, chaos, data[cut:])
	if grown, err := os.ReadFile(chaos); err != nil || !bytes.Equal(grown, data) {
		t.Fatalf("the grown archive is not the archive (%v)", err)
	}
	awaitSections(d, 4)
	chaosTable := d.Get("/v1/table1")
	d.Stop()

	if !bytes.Equal(chaosTable, cleanTable) {
		t.Errorf("Table 1 after the kill and the growth differs from the clean pass:\n%s\nclean:\n%s", chaosTable, cleanTable)
	}
	cleanBytes := archivetest.Read(t, cleanWorld)
	chaosBytes := archivetest.Read(t, chaosWorld)
	if !bytes.Equal(chaosBytes, cleanBytes) {
		t.Error("the recovered world file differs from the clean pass's")
	}
}

// TestFlagDocs: README's Tools row and the Usage comment name the flags -h
// prints, each once, and no other.
func TestFlagDocs(t *testing.T) { cmdtest.CheckFlagDocs(t, "regsec-api") }
