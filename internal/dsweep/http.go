package dsweep

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"
)

// The HTTP control plane: four JSON endpoints mirroring Coordination.
// Records never travel over it — workers flush chunk files into the
// shared checkpoint directory; the control plane carries only leases and
// chunk manifests (names and checksums), so it stays small enough to reason
// about under partial failure (a lost reply at worst costs one lease TTL).

// NewHandler exposes a coordinator over HTTP.
func NewHandler(c *Coordinator) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /plan", func(w http.ResponseWriter, r *http.Request) {
		plan, err := c.FetchPlan(r.Context())
		reply(w, plan, err)
	})
	mux.HandleFunc("POST /lease", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			Worker string `json:"worker"`
		}
		if !decode(w, r, &req) {
			return
		}
		ctx, cancel := context.WithTimeout(r.Context(), leaseWait)
		defer cancel()
		grant, err := c.Lease(ctx, req.Worker)
		reply(w, grant, err)
	})
	mux.HandleFunc("POST /heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req struct {
			LeaseID string `json:"lease_id"`
		}
		if !decode(w, r, &req) {
			return
		}
		reply(w, struct{}{}, c.Heartbeat(r.Context(), req.LeaseID))
	})
	mux.HandleFunc("POST /complete", func(w http.ResponseWriter, r *http.Request) {
		req := &CompleteRequest{}
		if !decode(w, r, req) {
			return
		}
		rep, err := c.Complete(r.Context(), req)
		reply(w, rep, err)
	})
	return mux
}

// decode reads a JSON request body, answering 400 on garbage.
func decode(w http.ResponseWriter, r *http.Request, into any) bool {
	if err := json.NewDecoder(io.LimitReader(r.Body, 8<<20)).Decode(into); err != nil {
		http.Error(w, fmt.Sprintf("bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

// reply writes a JSON response, mapping coordinator errors to 409: every
// Coordination error is a state conflict (wrong fingerprint, unknown
// lease), not a transport failure, and the worker decides what to do.
func reply(w http.ResponseWriter, value any, err error) {
	if err != nil {
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	json.NewEncoder(w).Encode(value)
}

// callBudget bounds one control-plane round trip, well under the default
// lease TTL: a coordinator that accepts the connection and then stalls costs
// a worker this long, not forever. The worker exits on a failed lease or
// completion (its unit's lease expires and is re-leased) and only logs a
// failed heartbeat.
const callBudget = 10 * time.Second

// leaseWait bounds how long the handler holds a lease request while every
// pending unit is leased, well inside callBudget; the worker then asks
// again at once.
const leaseWait = callBudget / 2

// Client is the worker-side Coordination over HTTP.
type Client struct {
	// Base is the coordinator's base URL ("http://host:port").
	Base string

	budget time.Duration // zero: callBudget; tests shorten it
}

// call performs one JSON round trip within the call budget.
func (c *Client) call(ctx context.Context, method, path string, in, out any) error {
	budget := c.budget
	if budget == 0 {
		budget = callBudget
	}
	ctx, cancel := context.WithTimeout(ctx, budget)
	defer cancel()
	var body io.Reader
	if in != nil {
		data, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, strings.TrimRight(c.Base, "/")+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, 4096))
		return fmt.Errorf("dsweep: coordinator %s %s: %s: %s", method, path, resp.Status, strings.TrimSpace(string(msg)))
	}
	if out == nil {
		return nil
	}
	return json.NewDecoder(io.LimitReader(resp.Body, 8<<20)).Decode(out)
}

// FetchPlan implements Coordination.
func (c *Client) FetchPlan(ctx context.Context) (*Plan, error) {
	plan := &Plan{}
	if err := c.call(ctx, http.MethodGet, "/plan", nil, plan); err != nil {
		return nil, err
	}
	return plan, nil
}

// Lease implements Coordination.
func (c *Client) Lease(ctx context.Context, worker string) (*Grant, error) {
	grant := &Grant{}
	in := struct {
		Worker string `json:"worker"`
	}{worker}
	if err := c.call(ctx, http.MethodPost, "/lease", in, grant); err != nil {
		return nil, err
	}
	return grant, nil
}

// Heartbeat implements Coordination.
func (c *Client) Heartbeat(ctx context.Context, leaseID string) error {
	in := struct {
		LeaseID string `json:"lease_id"`
	}{leaseID}
	return c.call(ctx, http.MethodPost, "/heartbeat", in, nil)
}

// Complete implements Coordination.
func (c *Client) Complete(ctx context.Context, req *CompleteRequest) (*CompleteReply, error) {
	rep := &CompleteReply{}
	if err := c.call(ctx, http.MethodPost, "/complete", req, rep); err != nil {
		return nil, err
	}
	return rep, nil
}
