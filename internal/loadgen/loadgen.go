// Package loadgen generates DNS query load against a real server over UDP,
// in two modes. Closed-loop: a fixed set of virtual clients each keeps one
// query outstanding, so throughput measures the server's sustainable
// service rate. Open-loop: queries are offered at a configured rate
// regardless of completions (with an optional linear ramp), so latency
// percentiles measure behavior at a known offered load — the honest way to
// report p99 (closed-loop self-throttles and hides queueing).
//
// The generator pre-packs its query mix once and patches message IDs per
// send; the receive path matches responses to send timestamps by ID, so
// the measurement loop itself does not allocate.
package loadgen

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"securepki.org/registrarsec/internal/dnswire"
)

// Mode selects the load model.
type Mode int

const (
	// Closed keeps one query outstanding per connection.
	Closed Mode = iota
	// Open offers queries at Rate QPS regardless of completions.
	Open
)

// Config describes one load run.
type Config struct {
	// Addr is the server's UDP address (host:port).
	Addr string
	// Queries is the pre-packed query mix; IDs are patched per send. Each
	// wire must be a well-formed query ≥ 12 bytes.
	Queries [][]byte
	// Conns is the number of client sockets (virtual resolvers); default 8.
	Conns int
	// Mode selects closed- or open-loop (default Closed).
	Mode Mode
	// Rate is the total offered QPS in Open mode.
	Rate int
	// Ramp linearly ramps the offered rate from 0 to Rate over this
	// duration before the measured window (Open mode).
	Ramp time.Duration
	// Duration is the measured window (default 2s).
	Duration time.Duration
	// Seed shuffles the per-connection query order deterministically.
	Seed int64
}

// Result reports one load run.
type Result struct {
	Mode       string        `json:"mode"`
	Sent       uint64        `json:"sent"`
	Received   uint64        `json:"received"`
	Lost       uint64        `json:"lost"`
	Elapsed    time.Duration `json:"elapsed_ns"`
	QPS        float64       `json:"qps"`
	OfferedQPS float64       `json:"offered_qps,omitempty"`
	P50        time.Duration `json:"p50_ns"`
	P90        time.Duration `json:"p90_ns"`
	P99        time.Duration `json:"p99_ns"`
	P999       time.Duration `json:"p999_ns"`
}

// hist is a fixed-footprint latency histogram: 1µs buckets to 8.192ms,
// then 1ms buckets to 4s. Coarse above that is fine — a DNS query that
// slow is an outage, not a latency.
type hist struct {
	micro [8192]uint32
	milli [4096]uint32
	over  uint32
	count uint64
}

func (h *hist) add(d time.Duration) {
	h.count++
	us := d.Microseconds()
	switch {
	case us < int64(len(h.micro)):
		h.micro[us]++
	case us/1000 < int64(len(h.milli)):
		h.milli[us/1000]++
	default:
		h.over++
	}
}

func (h *hist) merge(o *hist) {
	for i, v := range o.micro {
		h.micro[i] += v
	}
	for i, v := range o.milli {
		h.milli[i] += v
	}
	h.over += o.over
	h.count += o.count
}

// quantile returns the latency at fraction q of the distribution.
func (h *hist) quantile(q float64) time.Duration {
	if h.count == 0 {
		return 0
	}
	target := uint64(q * float64(h.count))
	if target >= h.count {
		target = h.count - 1
	}
	var seen uint64
	for i, v := range h.micro {
		seen += uint64(v)
		if seen > target {
			return time.Duration(i) * time.Microsecond
		}
	}
	for i, v := range h.milli {
		seen += uint64(v)
		if seen > target {
			return time.Duration(i) * time.Millisecond
		}
	}
	return 4 * time.Second
}

// Run executes one load run. It returns an error only for setup failures;
// lost queries are reported in the Result.
func Run(ctx context.Context, cfg Config) (Result, error) {
	if len(cfg.Queries) == 0 {
		return Result{}, errors.New("loadgen: empty query mix")
	}
	for _, q := range cfg.Queries {
		if len(q) < 12 {
			return Result{}, errors.New("loadgen: query shorter than a DNS header")
		}
	}
	conns := cfg.Conns
	if conns <= 0 {
		conns = 8
	}
	duration := cfg.Duration
	if duration <= 0 {
		duration = 2 * time.Second
	}
	if cfg.Mode == Open && cfg.Rate <= 0 {
		return Result{}, errors.New("loadgen: open-loop mode requires Rate")
	}

	socks := make([]*net.UDPConn, conns)
	for i := range socks {
		raddr, err := net.ResolveUDPAddr("udp", cfg.Addr)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: %w", err)
		}
		c, err := net.DialUDP("udp", nil, raddr)
		if err != nil {
			return Result{}, fmt.Errorf("loadgen: %w", err)
		}
		defer c.Close()
		socks[i] = c
	}

	var sent, received atomic.Uint64
	hists := make([]*hist, conns)
	for i := range hists {
		hists[i] = &hist{}
	}

	var offered float64
	start := time.Now()
	var wg sync.WaitGroup
	switch cfg.Mode {
	case Open:
		offered = float64(cfg.Rate)
		runOpen(ctx, cfg, socks, hists, &sent, &received, duration)
	default:
		deadline := start.Add(duration)
		for i, c := range socks {
			wg.Add(1)
			go func(i int, c *net.UDPConn) {
				defer wg.Done()
				closedLoop(ctx, cfg, i, c, hists[i], &sent, &received, deadline)
			}(i, c)
		}
		wg.Wait()
	}
	elapsed := time.Since(start)

	total := &hist{}
	for _, h := range hists {
		total.merge(h)
	}
	res := Result{
		Mode:       map[Mode]string{Closed: "closed", Open: "open"}[cfg.Mode],
		Sent:       sent.Load(),
		Received:   received.Load(),
		Lost:       sent.Load() - received.Load(),
		Elapsed:    elapsed,
		QPS:        float64(received.Load()) / elapsed.Seconds(),
		OfferedQPS: offered,
		P50:        total.quantile(0.50),
		P90:        total.quantile(0.90),
		P99:        total.quantile(0.99),
		P999:       total.quantile(0.999),
	}
	return res, nil
}

// closedTimeout is the per-query response deadline in Closed mode; a
// timed-out query counts as lost, not as latency.
const closedTimeout = time.Second

// closedLoop keeps one query outstanding on c until deadline.
func closedLoop(ctx context.Context, cfg Config, worker int, c *net.UDPConn, h *hist,
	sent, received *atomic.Uint64, deadline time.Time) {
	rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)))
	buf := make([]byte, 65535)
	q := make([]byte, 0, 512)
	var id uint16
	for time.Now().Before(deadline) {
		if ctx.Err() != nil {
			return
		}
		id++
		q = append(q[:0], cfg.Queries[rng.Intn(len(cfg.Queries))]...)
		binary.BigEndian.PutUint16(q, id)
		t0 := time.Now()
		if _, err := c.Write(q); err != nil {
			return
		}
		sent.Add(1)
		c.SetReadDeadline(t0.Add(closedTimeout))
		for {
			n, err := c.Read(buf)
			if err != nil {
				break // timeout: count as lost, move on
			}
			if n >= 2 && binary.BigEndian.Uint16(buf) == id {
				received.Add(1)
				h.add(time.Since(t0))
				break
			}
			// Stale response from a timed-out earlier query; keep reading.
		}
	}
}

// runOpen paces queries at cfg.Rate across the sockets, with per-socket
// receiver goroutines matching responses to send times by message ID.
func runOpen(ctx context.Context, cfg Config, socks []*net.UDPConn, hists []*hist,
	sent, received *atomic.Uint64, duration time.Duration) {
	type connState struct {
		c *net.UDPConn
		// sendNanos[id] is the send time of the query bearing that ID,
		// written by the sender and read by the receiver; 16-bit ID space
		// wraps, which is safe while in-flight per conn stays under 64k.
		sendNanos [65536]atomic.Int64
		id        atomic.Uint32
	}
	states := make([]*connState, len(socks))
	for i, c := range socks {
		states[i] = &connState{c: c}
	}

	var recvWG sync.WaitGroup
	for i, st := range states {
		recvWG.Add(1)
		go func(st *connState, h *hist) {
			defer recvWG.Done()
			buf := make([]byte, 65535)
			for {
				n, err := st.c.Read(buf)
				if err != nil {
					return // socket closed by the drain below
				}
				if n < 2 {
					continue
				}
				id := binary.BigEndian.Uint16(buf)
				t0 := st.sendNanos[id].Swap(0)
				if t0 == 0 {
					continue
				}
				received.Add(1)
				h.add(time.Duration(nowNanos() - t0))
			}
		}(st, hists[i])
	}

	// Senders: each paces its share of the rate with a token schedule.
	perSender := cfg.Rate / len(socks)
	if perSender == 0 {
		perSender = 1
	}
	var sendWG sync.WaitGroup
	for i, st := range states {
		sendWG.Add(1)
		go func(worker int, st *connState) {
			defer sendWG.Done()
			rng := rand.New(rand.NewSource(cfg.Seed + int64(worker)))
			q := make([]byte, 0, 512)
			interval := float64(time.Second) / float64(perSender)
			begin := time.Now()
			end := begin.Add(cfg.Ramp + duration)
			next := begin
			for time.Now().Before(end) {
				if ctx.Err() != nil {
					return
				}
				now := time.Now()
				if now.Before(next) {
					time.Sleep(next.Sub(now))
				}
				// During the ramp the interval shrinks linearly to target.
				step := interval
				if cfg.Ramp > 0 {
					if since := time.Since(begin); since < cfg.Ramp {
						frac := float64(since) / float64(cfg.Ramp)
						if frac < 0.05 {
							frac = 0.05
						}
						step = interval / frac
					}
				}
				next = next.Add(time.Duration(step))
				id := uint16(st.id.Add(1))
				q = append(q[:0], cfg.Queries[rng.Intn(len(cfg.Queries))]...)
				binary.BigEndian.PutUint16(q, id)
				st.sendNanos[id].Store(nowNanos())
				if _, err := st.c.Write(q); err != nil {
					return
				}
				sent.Add(1)
			}
		}(i, st)
	}
	sendWG.Wait()
	// Grace period for stragglers, then unblock the receivers.
	time.Sleep(200 * time.Millisecond)
	for _, st := range states {
		st.c.SetReadDeadline(time.Now())
	}
	recvWG.Wait()
}

var nanoBase = time.Now()

// nowNanos is a monotonic clock reading cheap enough for the send path.
func nowNanos() int64 { return int64(time.Since(nanoBase)) }

// QueryMix pre-packs a query wire per (name, type) pair; doRatio of them
// (deterministically by seed) carry EDNS with the DO bit set, the rest are
// plain EDNS queries. The packed IDs are zero; Run patches them per send.
// The packets lie end to end in one allocation, each capped at its length.
func QueryMix(names []string, types []dnswire.Type, doRatio float64, seed int64) ([][]byte, error) {
	if len(names) == 0 || len(types) == 0 {
		return nil, errors.New("loadgen: empty name or type set")
	}
	// Header 12, name as labels at most len+2, type and class 4, OPT 11.
	size := 0
	for _, name := range names {
		size += len(types) * (len(name) + 29)
	}
	rng := rand.New(rand.NewSource(seed))
	mix := make([][]byte, 0, len(names)*len(types))
	buf := make([]byte, 0, size)
	for _, name := range names {
		for _, t := range types {
			start := len(buf)
			var err error
			buf, err = dnswire.AppendEDNSQuery(buf, 0, name, t, dnswire.ReplyUDPPayload, rng.Float64() < doRatio)
			if err != nil {
				return nil, err
			}
			mix = append(mix, buf[start:len(buf):len(buf)])
		}
	}
	return mix, nil
}
