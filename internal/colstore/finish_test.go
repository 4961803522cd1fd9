package colstore

import (
	"bytes"
	"maps"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"securepki.org/registrarsec/internal/simtime"
)

// TestFinishWorkerInvariance: finish cuts the rows into runs and fills the
// event groups on GOMAXPROCS workers. At 1, 2 and 8 the groups are those
// of one serial pass over the rows, and the Overview, Series and saved
// bytes drawn from them are the same. Both populations span many worker
// slices at 8: a generated world's cohort runs, some crossing a slice
// boundary, and an ingester's rows, whose groups recur in no order.
func TestFinishWorkerInvariance(t *testing.T) {
	_, planned := paperIndex(t, paperRuns())
	rng := rand.New(rand.NewSource(5))
	unordered := buildIndex(randomDomains(rng, 8*finishShardMin+123))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	tlds := []string{"com", "net", "org", "nl", "se", "xyz"}
	for name, x := range map[string]*Index{"cohort runs": planned, "rows in no order": unordered} {
		want := serialGroups(x)
		var wantOv []TLDOverview
		var wantSeries []SeriesPoint
		var wantSaved []byte
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			x.finish()
			if got := snapshotGroups(x); !got.equal(want) {
				t.Fatalf("%s at GOMAXPROCS %d: the event groups differ from a serial pass over the rows", name, procs)
			}
			ov := x.Overview(simtime.End, tlds)
			series := x.Series(x.ops[0], "", simtime.GTLDStart, simtime.End, 7)
			var saved bytes.Buffer
			if err := x.Save(&saved, map[string]string{"k": "v"}); err != nil {
				t.Fatal(err)
			}
			if procs == 1 {
				wantOv, wantSeries, wantSaved = ov, series, saved.Bytes()
				continue
			}
			if !reflect.DeepEqual(ov, wantOv) || !reflect.DeepEqual(series, wantSeries) {
				t.Errorf("%s at GOMAXPROCS %d: Overview or Series differs from GOMAXPROCS 1", name, procs)
			}
			if !bytes.Equal(saved.Bytes(), wantSaved) {
				t.Errorf("%s at GOMAXPROCS %d: saves to other bytes than at GOMAXPROCS 1", name, procs)
			}
		}
	}
}

// groupState is what finish derives, copied out of an index.
type groupState struct {
	groups   []eventGroup
	groupIDs map[uint64]int
	opGroups [][]int
}

func snapshotGroups(x *Index) groupState {
	return groupState{slices.Clone(x.groups), maps.Clone(x.groupIDs), slices.Clone(x.opGroups)}
}

// equal compares two states, an empty event list equal to a missing one.
func (s groupState) equal(o groupState) bool {
	return slices.EqualFunc(s.groups, o.groups, func(a, b eventGroup) bool {
		return a.op == b.op && a.tld == b.tld && a.total == b.total &&
			slices.Equal(a.keyDays, b.keyDays) && slices.Equal(a.dsDays, b.dsDays) && slices.Equal(a.fullDays, b.fullDays)
	}) && maps.Equal(s.groupIDs, o.groupIDs) && slices.EqualFunc(s.opGroups, o.opGroups, slices.Equal[[]int])
}

// serialGroups derives the groups one row at a time, numbering them by
// first appearance, and sorts their event lists.
func serialGroups(x *Index) groupState {
	s := groupState{groupIDs: make(map[uint64]int), opGroups: make([][]int, len(x.ops))}
	for i := range x.Len() {
		k := groupKey(x.opID[i], x.tldID[i])
		gi, ok := s.groupIDs[k]
		if !ok {
			gi = len(s.groups)
			s.groupIDs[k] = gi
			s.groups = append(s.groups, eventGroup{op: x.opID[i], tld: x.tldID[i]})
			s.opGroups[x.opID[i]] = append(s.opGroups[x.opID[i]], gi)
		}
		g := &s.groups[gi]
		g.total++
		if x.keyDay[i] != never {
			g.keyDays = append(g.keyDays, x.keyDay[i])
		}
		if x.dsDay[i] != never {
			g.dsDays = append(g.dsDays, x.dsDay[i])
			if x.fullDay[i] != impossible {
				g.fullDays = append(g.fullDays, x.fullDay[i])
			}
		}
	}
	for gi := range s.groups {
		g := &s.groups[gi]
		slices.Sort(g.keyDays)
		slices.Sort(g.dsDays)
		slices.Sort(g.fullDays)
	}
	return s
}
