package dsweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"securepki.org/registrarsec/internal/checkpoint"
	"securepki.org/registrarsec/internal/dataset"
	"securepki.org/registrarsec/internal/scan"
	"securepki.org/registrarsec/internal/simtime"
)

// WorkerSpec declares one in-process worker for RunLocal.
type WorkerSpec struct {
	// Name identifies the worker; must be unique within the topology.
	Name string
	// StreamSetup builds the worker's scanning environment per day.
	StreamSetup scan.StreamDaySetup
}

// LocalConfig configures RunLocal. Leases run for the coordinator's
// default TTL.
type LocalConfig struct {
	Plan    Plan
	Store   *checkpoint.Store
	Workers []WorkerSpec

	// leaseTTL replaces the default lease TTL in tests.
	leaseTTL time.Duration
}

// Result is RunLocal's outcome accounting.
type Result struct {
	// Stats is the coordinator's fault accounting.
	Stats Stats
	// HealthByDay and HealthByWorker are the merged sweep-health reports.
	HealthByDay    map[simtime.Day]*scan.SweepHealth
	HealthByWorker map[string]*scan.SweepHealth
	// WorkerErrs maps worker name to its terminal error, for workers that
	// died (kills, context cancellation). A sweep can still succeed
	// with dead workers as long as at least one survivor finished the plan.
	WorkerErrs map[string]error
}

// RunLocal runs a complete coordinator + N in-process workers topology to
// completion: every worker drains the plan concurrently, dead workers are
// tolerated while at least one survives, and the coordinator's CRC-verified
// merge then hands each day to sink, as ResumableSweep.RunStream does. The
// checkpoint directory is left intact for the caller to Clear once the
// merged archive is durable.
func RunLocal(ctx context.Context, cfg LocalConfig, sink scan.DaySink) (*Result, error) {
	if len(cfg.Workers) == 0 {
		return nil, fmt.Errorf("dsweep: RunLocal needs at least one worker")
	}
	coord, err := NewCoordinator(CoordinatorConfig{
		Plan:     cfg.Plan,
		Store:    cfg.Store,
		LeaseTTL: cfg.leaseTTL,
	})
	if err != nil {
		return nil, err
	}
	defer coord.Close()

	workers := make([]*Worker, 0, len(cfg.Workers))
	for _, ws := range cfg.Workers {
		w, err := NewWorker(WorkerConfig{
			Name:        ws.Name,
			Coord:       coord,
			Store:       cfg.Store,
			StreamSetup: ws.StreamSetup,
		})
		if err != nil {
			return nil, err
		}
		workers = append(workers, w)
	}
	return runFleet(ctx, coord, workers, sink)
}

// runFleet runs the workers against coord until each has exited, then
// merges what the coordinator holds into sink.
func runFleet(ctx context.Context, coord *Coordinator, workers []*Worker, sink scan.DaySink) (*Result, error) {
	var (
		wg   sync.WaitGroup
		mu   sync.Mutex
		errs = make(map[string]error)
	)
	for _, w := range workers {
		wg.Add(1)
		go func(w *Worker) {
			defer wg.Done()
			if err := w.Run(ctx); err != nil {
				mu.Lock()
				errs[w.cfg.Name] = err
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()

	res := &Result{Stats: coord.Stats(), WorkerErrs: errs}
	res.HealthByDay, res.HealthByWorker = coord.Health()

	select {
	case <-coord.Done():
	default:
		// Every worker exited without finishing the plan — all killed, or
		// the context was cancelled. The checkpoint and the coordinator
		// state survive for a re-run.
		if err := ctx.Err(); err != nil {
			return res, err
		}
		return res, fmt.Errorf("dsweep: all %d workers died with %d/%d units done (errors: %v)",
			len(workers), res.Stats.Done, coord.cfg.Plan.Units(), joinWorkerErrs(errs))
	}

	return res, coord.Merge(dataset.SpillOptions{}, sink)
}

// joinWorkerErrs renders the worker error map compactly.
func joinWorkerErrs(errs map[string]error) error {
	var parts []error
	for name, err := range errs {
		parts = append(parts, fmt.Errorf("%s: %w", name, err))
	}
	return errors.Join(parts...)
}
