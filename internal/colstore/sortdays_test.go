package colstore

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// TestSortDaysMatchesSlicesSort holds the counting sort to slices.Sort on
// seeded lists of every shape it treats apart: empty, short and long, dense
// with duplicates, all never, one real day among nevers, negative days, and
// spans much wider than the list.
func TestSortDaysMatchesSlicesSort(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	day := func(lo, n int) int32 { return int32(lo + rng.Intn(n)) }
	shapes := []struct {
		name string
		draw func(n int) int32
	}{
		{"dense", func(int) int32 { return day(0, 60) }},
		{"window", func(int) int32 { return day(-300, 1000) }},
		{"negative", func(int) int32 { return day(-790, 90) }},
		{"wide", func(n int) int32 { return day(0, 100*n) }},
		{"with never", func(int) int32 { return pick(rng, 3, never, day(0, 500)) }},
		{"mostly never", func(int) int32 { return pick(rng, 50, day(0, 500), never) }},
		{"all never", func(int) int32 { return never }},
		{"one real day among never", func(int) int32 { return never }},
		{"one day", func(int) int32 { return 640 }},
		{"negative and never", func(int) int32 { return pick(rng, 2, never, day(-40, 40)) }},
	}
	var counts []int32
	for _, shape := range shapes {
		for _, n := range []int{0, 1, 2, 3, 17, 100, 1000, 5000} {
			for rep := 0; rep < 3; rep++ {
				days := make([]int32, n)
				for i := range days {
					days[i] = shape.draw(n)
				}
				if shape.name == "one real day among never" && n > 0 {
					days[rng.Intn(n)] = day(-10, 20)
				}
				want := slices.Clone(days)
				slices.Sort(want)
				counts = sortDays(days, counts)
				if !slices.Equal(days, want) {
					t.Fatalf("%s, n=%d: sortDays left %s, want %s", shape.name, n, head(days), head(want))
				}
			}
		}
	}
	if len(counts) == 0 {
		t.Error("no list was sorted by counting")
	}
}

// pick returns rare once in oneIn draws, else common.
func pick(rng *rand.Rand, oneIn int, rare, common int32) int32 {
	if rng.Intn(oneIn) == 0 {
		return rare
	}
	return common
}

func head(days []int32) string {
	if len(days) > 12 {
		return fmt.Sprint(days[:12]) + "…"
	}
	return fmt.Sprint(days)
}
