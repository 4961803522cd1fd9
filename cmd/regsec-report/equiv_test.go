package main

import (
	"context"
	"encoding/json"
	"maps"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"securepki.org/registrarsec"
	"securepki.org/registrarsec/internal/analysis"
	"securepki.org/registrarsec/internal/apiserv"
	"securepki.org/registrarsec/internal/archivetest"
	"securepki.org/registrarsec/internal/cmdtest"
	"securepki.org/registrarsec/internal/colstore"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
)

// reportRows is the report's Table 1 for one folded day, as it prints it.
func reportRows(d dayRows, tlds []string) []colstore.TLDOverview {
	out := make([]colstore.TLDOverview, len(tlds))
	for i, tld := range tlds {
		out[i] = d.rows[tld]
		out[i].TLD = tld
	}
	return out
}

// TestArchiveFoldMatchesReference measures a seeded sample over four days,
// clean and under faults, and folds the archive Measure wrote as the report
// does. Every day's Table 1 and the final day's two operator CDFs must
// equal the record-at-a-time reference over the same sections, read with
// colstore's Failed rule: a domain keeps its last measured record through
// the days it could not be measured.
func TestArchiveFoldMatchesReference(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a world and sweeps it")
	}
	study, err := registrarsec.NewStudy(registrarsec.Options{Scale: 1.0 / 5000, Seed: 1, SkipAgents: true})
	if err != nil {
		t.Fatal(err)
	}
	days := []simtime.Day{simtime.Date(2016, 3, 1), simtime.Date(2016, 7, 1), simtime.Date(2016, 11, 1), simtime.End}
	for _, tc := range []struct {
		name  string
		rules []registrarsec.FaultRule
	}{
		{"clean", nil},
		{"faulty", []registrarsec.FaultRule{
			// Dark on one middle day and on the last: measured, then Failed.
			{Pattern: "*.nl-hosting.example", OutageFrom: days[1], OutageTo: days[1]},
			{Pattern: "*.se-hosting.example", OutageFrom: days[3], OutageTo: days[3]},
			{Pattern: "*.com-hosting.example", Loss: 0.6},
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "scans.tsv")
			if _, err := study.Measure(context.Background(), registrarsec.LongitudinalConfig{
				Days: days, Sample: 300, Workers: 8, Shards: 2, FaultSeed: 7, Rules: tc.rules, Archive: path,
			}); err != nil {
				t.Fatal(err)
			}
			fold := &archiveFold{tlds: map[string]bool{}}
			latest := map[string]dataset.Record{}
			measuredThenFailed := 0
			var ref *dataset.Snapshot
			idx, _, err := colstore.FoldArchive(path, func(snap *dataset.Snapshot, idx *colstore.Index) error {
				if err := fold.add(snap, idx); err != nil {
					return err
				}
				for _, r := range snap.Records {
					if !r.Failed {
						latest[r.Domain] = r
					} else if _, ok := latest[r.Domain]; ok {
						measuredThenFailed++
					}
				}
				ref = &dataset.Snapshot{Day: snap.Day}
				for _, r := range latest {
					ref.Records = append(ref.Records, r)
				}
				ref.Canonicalize()
				tlds := slices.Sorted(maps.Keys(fold.tlds))
				if got, want := reportRows(fold.days[len(fold.days)-1], tlds), analysis.Overview(ref, tlds); !reflect.DeepEqual(got, want) {
					t.Errorf("day %s: Table 1\ngot  %v\nwant %v", snap.Day, got, want)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%d domains, %d failed after being measured", len(latest), measuredThenFailed)
			if tc.rules != nil && measuredThenFailed == 0 {
				t.Fatal("the faulty sweep measured no domain that a later day failed")
			}
			for _, c := range []struct {
				class  colstore.Class
				filter analysis.Filter
			}{{colstore.ClassAny, analysis.All}, {colstore.ClassFull, analysis.FullyDeployed}} {
				got, want := idx.OperatorCDF(ref.Day, c.class), analysis.OperatorCDF(ref, c.filter)
				if !reflect.DeepEqual(got, want) {
					t.Errorf("final day, class %d: operator CDF\ngot  %v\nwant %v", c.class, got, want)
				}
			}
		})
	}
}

// TestReportAgreesWithAPI: over an archive whose domains are measured and
// later Failed, the report's last day is the Table 1 regsec-api serves once
// it has ingested the archive.
func TestReportAgreesWithAPI(t *testing.T) {
	dir := t.TempDir()
	raw := measuredThenFailedArchive(t)
	path := filepath.Join(dir, "scans.tsv")
	archivetest.Write(t, path, raw)
	fold := &archiveFold{tlds: map[string]bool{}}
	if _, _, err := colstore.FoldArchive(path, fold.add); err != nil {
		t.Fatal(err)
	}
	tlds := slices.Sorted(maps.Keys(fold.tlds))
	want := reportRows(fold.days[len(fold.days)-1], tlds)

	srv := apiserv.New(apiserv.Config{
		ArchivePath: path, WorldPath: filepath.Join(dir, "world.colstore"), PollInterval: 10 * time.Millisecond,
	})
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() { srv.Run(ctx); close(done) }()
	defer func() { cancel(); <-done }()
	get := func(url string, v any) {
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
			t.Fatalf("%s: %v: %s", url, err, rec.Body)
		}
	}
	cmdtest.Await(t, "the api ingest every section", nil, func() bool {
		var st apiserv.Status
		get("/v1/status", &st)
		return st.Sections == len(fold.days)
	})
	var table struct {
		Day  string                 `json:"day"`
		TLDs []colstore.TLDOverview `json:"tlds"`
	}
	get("/v1/table1?tlds="+strings.Join(tlds, ","), &table)
	last := fold.days[len(fold.days)-1].day
	if table.Day != last.String() || !reflect.DeepEqual(table.TLDs, want) {
		t.Errorf("/v1/table1 on %s\ngot  %v\nwant %v (report, %s)", table.Day, table.TLDs, want, last)
	}
}
