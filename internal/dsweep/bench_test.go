package dsweep

import (
	"bytes"
	"context"
	"fmt"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/simtime"
	"securepki.org/registrarsec/internal/tldsim"
)

// BenchmarkRunLocal times one plan (two days × four shards of a 150-domain
// sample at divisor 4000) drained by fleets of 1, 2 and 4 in-process
// workers over a shared checkpoint directory, each worker with its own
// sample cursor and exchange stack as a separate regsec-scan -worker
// process would have. The world and the per-worker setups are built outside
// the timer: the series tracks how the topology scales, not start-up cost.
// Every run's merged archive must equal a fleet-of-one's, byte for byte.
func BenchmarkRunLocal(b *testing.B) {
	spec := &WorldSpec{ScaleDiv: 4000, Seed: 1, Sample: 150, Workers: 4}
	plan := spec.PlanFor([]simtime.Day{simtime.Date(2016, 6, 1), simtime.End}, 4, 0)
	world, err := tldsim.Build(spec.WorldConfig())
	if err != nil {
		b.Fatal(err)
	}

	// runFleet drains the plan with n workers and returns the merged archive,
	// the coordinator's re-lease count and the time the drain took.
	runFleet := func(b *testing.B, n int) ([]byte, int, time.Duration) {
		store := openStore(b)
		workers := plan.Fleet(world, n)
		start := time.Now()
		// A 2s lease bounds what a lost lease would cost the drain, so the
		// wall time reflects the topology and not the 30s production TTL.
		var buf bytes.Buffer
		res, err := RunLocal(context.Background(), LocalConfig{
			Plan: plan, Store: store, leaseTTL: 2 * time.Second, Workers: workers,
		}, func(_ simtime.Day, sw *dataset.SpillWriter) error { return sw.WriteSectionTo(&buf) })
		wall := time.Since(start)
		if err != nil {
			b.Fatal(err)
		}
		return buf.Bytes(), res.Stats.Releases, wall
	}

	reference, _, _ := runFleet(b, 1)
	for _, n := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("fleet=%d", n), func(b *testing.B) {
			var releases int
			var drain time.Duration
			for i := 0; i < b.N; i++ {
				archive, rel, wall := runFleet(b, n)
				if !bytes.Equal(archive, reference) {
					b.Fatalf("fleet of %d: merged archive differs from the fleet-of-one archive", n)
				}
				releases += rel
				drain += wall
			}
			b.ReportMetric(float64(drain.Nanoseconds())/float64(b.N), "ns/op")
			b.ReportMetric(float64(releases)/float64(b.N), "re-leases/op")
		})
	}
}
