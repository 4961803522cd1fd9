// Package logtest is test support for code that reports through log/slog's
// default logger: Capture records what the code logs while a test runs.
package logtest

import (
	"context"
	"log"
	"log/slog"
	"sync"
	"testing"
)

// Record is one logged record: its level, message and attributes, each
// attribute value as the default handler would print it.
type Record struct {
	Level   slog.Level
	Message string
	Attrs   map[string]string
}

// Recorder holds the records logged since Capture.
type Recorder struct {
	mu      sync.Mutex
	records []Record
}

// Capture makes slog's default logger record into the returned Recorder
// until the test ends, when the previous default logger and the log
// package's output are restored. Tests that capture must not run in
// parallel: the default logger is process-wide.
func Capture(t testing.TB) *Recorder {
	prev, prevOut, prevFlags := slog.Default(), log.Writer(), log.Flags()
	r := &Recorder{}
	slog.SetDefault(slog.New(&handler{rec: r}))
	t.Cleanup(func() {
		// SetDefault redirected the log package into the recorder, and
		// restoring slog's own default handler does not undo that.
		slog.SetDefault(prev)
		log.SetOutput(prevOut)
		log.SetFlags(prevFlags)
	})
	return r
}

// Records returns the records logged with message msg, in order; msg ""
// returns every record.
func (r *Recorder) Records(msg string) []Record {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []Record
	for _, rec := range r.records {
		if msg == "" || rec.Message == msg {
			out = append(out, rec)
		}
	}
	return out
}

// handler is the recording slog.Handler. Attributes added by With are kept;
// groups are flattened.
type handler struct {
	rec   *Recorder
	attrs []slog.Attr
}

func (h *handler) Enabled(context.Context, slog.Level) bool { return true }

func (h *handler) Handle(_ context.Context, r slog.Record) error {
	rec := Record{Level: r.Level, Message: r.Message, Attrs: make(map[string]string, len(h.attrs)+r.NumAttrs())}
	add := func(a slog.Attr) bool {
		rec.Attrs[a.Key] = a.Value.Resolve().String()
		return true
	}
	for _, a := range h.attrs {
		add(a)
	}
	r.Attrs(add)
	h.rec.mu.Lock()
	h.rec.records = append(h.rec.records, rec)
	h.rec.mu.Unlock()
	return nil
}

func (h *handler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &handler{rec: h.rec, attrs: append(h.attrs[:len(h.attrs):len(h.attrs)], attrs...)}
}

func (h *handler) WithGroup(string) slog.Handler { return h }
