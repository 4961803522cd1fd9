package dsweep

import (
	"bytes"
	"context"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"securepki.org/registrarsec/internal/dataset"
)

// TestHTTPTopologyByteIdentical runs the full control plane over real
// HTTP: a coordinator behind NewHandler, two workers speaking through
// Client, one of them chaos-killed mid-shard. The merged archive must
// still match the single-process oracle.
func TestHTTPTopologyByteIdentical(t *testing.T) {
	env := newChaosEnv(t, 3)
	coord := coordinator(t, CoordinatorConfig{
		Plan: env.plan, Store: env.store, LeaseTTL: 300 * time.Millisecond,
	})
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()

	scripts := map[string]*chaos{
		"hw1": {claim: 1, act: actKillBeforeReport},
		"hw2": nil,
	}
	var wg sync.WaitGroup
	errs := make(map[string]error)
	var mu sync.Mutex
	for name, script := range scripts {
		w, err := script.worker(name, &Client{Base: srv.URL}, env.store, testStreamSetup(t, env.eco, env.targets))
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func(name string) {
			defer wg.Done()
			if err := w.Run(context.Background()); err != nil {
				mu.Lock()
				errs[name] = err
				mu.Unlock()
			}
		}(name)
	}
	wg.Wait()

	select {
	case <-coord.Done():
	default:
		t.Fatalf("plan not finished over HTTP (worker errors: %v)", errs)
	}
	if errs["hw1"] == nil || !strings.Contains(errs["hw1"].Error(), "chaos") {
		t.Fatalf("hw1 should have been chaos-killed: %v", errs["hw1"])
	}
	got, _, _ := mergeArchive(t, coord, dataset.SpillOptions{})
	if !bytes.Equal(env.want, got) {
		t.Error("HTTP-topology archive differs from single-process sweep")
	}
	if coord.Stats().Releases == 0 {
		t.Fatalf("killed HTTP worker's lease never expired: %+v", coord.Stats())
	}
}

// TestHTTPErrorMapping checks that coordinator-side conflicts surface as
// client errors with the coordinator's message, not as decode garbage.
func TestHTTPErrorMapping(t *testing.T) {
	env := newChaosEnv(t, 2)
	coord := coordinator(t, CoordinatorConfig{Plan: env.plan, Store: env.store})
	srv := httptest.NewServer(NewHandler(coord))
	defer srv.Close()
	client := &Client{Base: srv.URL}
	ctx := context.Background()

	if _, err := client.Lease(ctx, ""); err == nil || !strings.Contains(err.Error(), "worker id") {
		t.Fatalf("empty worker id: %v", err)
	}
	if err := client.Heartbeat(ctx, "L999999"); err == nil || !strings.Contains(err.Error(), "unknown or expired") {
		t.Fatalf("bogus heartbeat: %v", err)
	}
	g, err := client.Lease(ctx, "w1")
	if err != nil || g.Status != GrantRun {
		t.Fatalf("lease: %+v, %v", g, err)
	}
	meta := flush(t, env.store, g.Unit, "w1", makeSnap(g.Unit.Day, "a.com"))
	if _, err := client.Complete(ctx, &CompleteRequest{
		LeaseID: g.LeaseID, Worker: "w1", Unit: g.Unit,
		Fingerprint: "wrong-fingerprint", Manifest: meta,
	}); err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("wrong fingerprint: %v", err)
	}

	// The plan fetched over HTTP round-trips intact.
	plan, err := client.FetchPlan(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Fingerprint != env.plan.Fingerprint || len(plan.Days) != len(env.plan.Days) || plan.Shards != env.plan.Shards {
		t.Fatalf("plan round-trip: %+v", plan)
	}
}
