package main

import (
	"bufio"
	"context"
	"fmt"
	"os"
	"sort"
	"strconv"
	"sync"
	"time"
)

// A tracer keeps the spans of one traced run in memory; writeChrome dumps
// them when the run ends. The nil tracer records nothing, so an untraced run
// executes the same benchmark code with the recording compiled down to a nil
// check — and the wrappers that would add per-exchange work are only
// installed when a tracer exists.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
}

// span is one timed call into a layer. parent is the span that caused it
// (-1 for a root); group is the identifier its siblings share — the day and
// chunk of a sweep, the request number of an api read.
type span struct {
	name       string
	parent     int32
	group      int64
	start, end int64 // nanoseconds since tracer.t0
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id (-1 on the nil tracer).
func (t *tracer) begin(name string, parent int32, group int64) int32 {
	if t == nil {
		return -1
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{name: name, parent: parent, group: group, start: now, end: -1})
	t.mu.Unlock()
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id < 0 {
		return
	}
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans[id].end = now
	t.mu.Unlock()
}

// spanKey carries the enclosing span through a context, so a transport call
// finds the stack call that caused it across the middleware between them.
type spanKey struct{}

func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int32 {
	if id, ok := ctx.Value(spanKey{}).(int32); ok {
		return id
	}
	return -1
}

// layerTime is one row of the self-time table.
type layerTime struct {
	Name   string  `json:"name"`
	Count  int     `json:"count"`
	TotalS float64 `json:"total_s"`
	SelfS  float64 `json:"self_s"`
}

// selfTimes folds spans into one row per span name. A span's self time is
// its duration minus the part of its interval that its child spans cover;
// children running in parallel (sixteen exchanges under one chunk scan) are
// merged before subtracting, so covered time is never counted twice.
func selfTimes(spans []span) []layerTime {
	children := make(map[int32][][2]int64)
	for _, s := range spans {
		if s.parent >= 0 && s.end >= s.start {
			children[s.parent] = append(children[s.parent], [2]int64{s.start, s.end})
		}
	}
	rows := make(map[string]*layerTime)
	for id, s := range spans {
		if s.end < s.start {
			continue // never closed: the run was cut short inside it
		}
		covered := int64(0)
		if kids := children[int32(id)]; len(kids) > 0 {
			sort.Slice(kids, func(i, j int) bool { return kids[i][0] < kids[j][0] })
			curLo, curHi := int64(-1), int64(-1)
			for _, k := range kids {
				lo, hi := max(k[0], s.start), min(k[1], s.end)
				if hi <= lo {
					continue
				}
				if lo > curHi {
					covered += curHi - curLo
					curLo, curHi = lo, hi
				} else if hi > curHi {
					curHi = hi
				}
			}
			covered += curHi - curLo
		}
		r := rows[s.name]
		if r == nil {
			r = &layerTime{Name: s.name}
			rows[s.name] = r
		}
		r.Count++
		r.TotalS += float64(s.end-s.start) / 1e9
		r.SelfS += float64(s.end-s.start-covered) / 1e9
	}
	out := make([]layerTime, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].SelfS > out[j].SelfS })
	return out
}

// total sums the durations of every closed span with the given name.
func (t *tracer) total(name string) (seconds float64, count int) {
	d := t.durations(name)
	for _, x := range d {
		seconds += x
	}
	return seconds, len(d)
}

// durations lists the durations (seconds) of every closed span named name.
func (t *tracer) durations(name string) []float64 {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.name == name && s.end >= s.start {
			out = append(out, float64(s.end-s.start)/1e9)
		}
	}
	return out
}

// traceFileCap bounds how many spans of one name the trace file carries: a
// sweep records hundreds of thousands of exchanges, and a 100 MB file helps
// nobody. The earliest are kept, so the first chunks are complete.
const traceFileCap = 20000

// writeChrome writes the spans in the Chrome trace-event format
// (chrome://tracing, Perfetto). A viewer nests events of one lane by time
// containment, so a span is put on its parent's lane when it nests inside
// whatever is open there, and on the first lane where it does otherwise —
// sixteen concurrent exchanges under one chunk scan render side by side.
func (t *tracer) writeChrome(path string) error {
	t.mu.Lock()
	spans := append([]span(nil), t.spans...)
	t.mu.Unlock()

	order := make([]int32, 0, len(spans))
	for id, s := range spans {
		if s.end >= s.start {
			order = append(order, int32(id))
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := spans[order[i]], spans[order[j]]
		if a.start != b.start {
			return a.start < b.start
		}
		return a.end > b.end // the enclosing span first
	})
	lane := make([]int32, len(spans))
	var open [][]int64 // per lane, the end times of the spans open on it, outermost first
	fits := func(k int, s span) bool {
		st := open[k]
		for len(st) > 0 && st[len(st)-1] <= s.start {
			st = st[:len(st)-1]
		}
		open[k] = st
		return len(st) == 0 || st[len(st)-1] >= s.end
	}
	for _, id := range order {
		s := spans[id]
		k := -1
		if s.parent >= 0 && fits(int(lane[s.parent]), s) {
			k = int(lane[s.parent])
		}
		for c := 0; k < 0 && c < len(open); c++ {
			if fits(c, s) {
				k = c
			}
		}
		if k < 0 {
			open = append(open, nil)
			k = len(open) - 1
		}
		open[k] = append(open[k], s.end)
		lane[id] = int32(k)
	}

	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriterSize(f, 1<<20)
	w.WriteString(`{"displayTimeUnit":"ms","traceEvents":[` + "\n")
	buf := make([]byte, 0, 256)
	written := make(map[string]int)
	first := true
	for _, id := range order {
		s := spans[id]
		// The file is for looking at; the tables are computed from every
		// span. Past traceFileCap spans of one name the rest are left out.
		if written[s.name]++; written[s.name] > traceFileCap {
			continue
		}
		buf = buf[:0]
		if !first {
			buf = append(buf, ",\n"...)
		}
		first = false
		buf = append(buf, `{"name":`...)
		buf = strconv.AppendQuote(buf, s.name)
		buf = append(buf, `,"ph":"X","pid":1,"tid":`...)
		buf = strconv.AppendInt(buf, int64(lane[id]), 10)
		buf = append(buf, `,"ts":`...)
		buf = strconv.AppendFloat(buf, float64(s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"dur":`...)
		buf = strconv.AppendFloat(buf, float64(s.end-s.start)/1e3, 'f', 3, 64)
		buf = append(buf, `,"args":{"id":`...)
		buf = strconv.AppendInt(buf, int64(id), 10)
		buf = append(buf, `,"parent":`...)
		buf = strconv.AppendInt(buf, int64(s.parent), 10)
		buf = append(buf, `,"group":`...)
		buf = strconv.AppendInt(buf, s.group, 10)
		buf = append(buf, "}}"...)
		w.Write(buf)
	}
	w.WriteString("\n]}\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing %s: %w", path, err)
	}
	return f.Close()
}
