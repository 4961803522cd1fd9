package colstore

import (
	"context"
	"errors"
	"path/filepath"
	"strings"
	"testing"

	"securepki.org/registrarsec/internal/simtime"
)

// mmapWorld saves a small index and re-loads it through the mmap path, the
// long-lived form the API daemon holds across cache refreshes.
func mmapWorld(t *testing.T) *Index {
	t.Helper()
	path := filepath.Join(t.TempDir(), "world.rscw")
	if err := testIndex(120, 5).SaveFile(path, nil); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	return loaded
}

func TestCloseDoubleClose(t *testing.T) {
	x := mmapWorld(t)
	if err := x.Close(); err != nil {
		t.Fatalf("first Close: %v", err)
	}
	err := x.Close()
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
}

// TestQueryAfterClose: the error-returning surface reports misuse as
// ErrClosed; the error-free surface panics with a pointed message instead of
// faulting on the released mapping.
func TestQueryAfterClose(t *testing.T) {
	x := mmapWorld(t)
	op := x.Row(0).Operator
	if err := x.Close(); err != nil {
		t.Fatal(err)
	}

	if _, err := x.SeriesCtx(context.Background(), op, "", 0, simtime.End, 30); !errors.Is(err, ErrClosed) {
		t.Fatalf("SeriesCtx after Close = %v, want ErrClosed", err)
	}
	if err := x.Save(&strings.Builder{}, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("Save after Close = %v, want ErrClosed", err)
	}
	if _, err := NewIngesterFromIndex(x); !errors.Is(err, ErrClosed) {
		t.Fatalf("NewIngesterFromIndex after Close = %v, want ErrClosed", err)
	}

	for name, query := range map[string]func(){
		"Snapshot":        func() { x.Snapshot(100) },
		"Materialize":     func() { x.Materialize(100) },
		"Series":          func() { x.Series(op, "", 0, simtime.End, 30) },
		"Row":             func() { x.Row(0) },
		"Overview":        func() { x.Overview(simtime.End, []string{"com"}) },
		"CountByOperator": func() { x.CountByOperator(simtime.End, ClassFull) },
		"DSGapPct":        func() { x.DSGapPct(simtime.End) },
		"TLDs":            func() { x.TLDs() },
	} {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Fatalf("%s after Close did not panic", name)
				}
				if msg, ok := r.(string); !ok || !strings.Contains(msg, "closed Index") {
					t.Fatalf("%s after Close panicked with %v, want a pointed closed-Index message", name, r)
				}
			}()
			query()
		}()
	}
}

// TestCloseOfHeapIndex: Close on a built (non-mmap) index is still a
// valid lifecycle — it marks the index closed without a mapping to
// release.
func TestCloseOfHeapIndex(t *testing.T) {
	x := testIndex(50, 6)
	op := x.Row(0).Operator
	if err := x.Close(); err != nil {
		t.Fatalf("Close of heap index: %v", err)
	}
	if err := x.Close(); !errors.Is(err, ErrClosed) {
		t.Fatalf("second Close = %v, want ErrClosed", err)
	}
	if _, err := x.SeriesCtx(context.Background(), op, "", 0, simtime.End, 30); !errors.Is(err, ErrClosed) {
		t.Fatalf("SeriesCtx after Close = %v, want ErrClosed", err)
	}
}

// TestQueryCancellation: a canceled request context aborts the scan path
// a dropped API request would otherwise keep burning CPU on.
func TestQueryCancellation(t *testing.T) {
	x := testIndex(400, 7)
	op := x.Row(0).Operator
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	if _, err := x.SeriesCtx(ctx, op, "", 0, simtime.End, 1); !errors.Is(err, context.Canceled) {
		t.Fatalf("SeriesCtx with canceled ctx = %v, want context.Canceled", err)
	}

	// A live context still completes and matches the legacy surface.
	series, err := x.SeriesCtx(context.Background(), op, "", 0, simtime.End, 30)
	if err != nil {
		t.Fatal(err)
	}
	if want := x.Series(op, "", 0, simtime.End, 30); len(series) != len(want) {
		t.Fatalf("SeriesCtx returned %d points, want %d", len(series), len(want))
	}
}
