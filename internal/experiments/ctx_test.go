package experiments

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestRunManyCtxBackgroundMatchesRunMany: the context-aware entry point with
// a live context is byte-identical to RunMany — same tables, same order.
func TestRunManyCtxBackgroundMatchesRunMany(t *testing.T) {
	cfg := Config{Seed: 1, Quick: true}
	ids := []string{"table7", "fig11", "fig2"}
	want, err := RunMany(cfg, ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := RunManyCtx(context.Background(), cfg, ids, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if got[i].ID != want[i].ID || got[i].Render() != want[i].Render() {
			t.Fatalf("RunManyCtx result %d (%s) differs from RunMany", i, want[i].ID)
		}
	}
}

// TestRunManyCtxCanceled: a pre-canceled context dispatches nothing and the
// error says so — a partial battery must never look complete.
func TestRunManyCtxCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	results, err := RunManyCtx(ctx, Config{Seed: 1, Quick: true}, IDs(), 2)
	if err == nil {
		t.Fatal("RunManyCtx with canceled context returned nil error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want wrapped context.Canceled", err)
	}
	if results != nil {
		t.Fatalf("results = %d entries, want nil on cancellation", len(results))
	}
}

// TestRunManyCtxUnknownID: id validation still fails up front, before any
// dispatch, with or without a live context.
func TestRunManyCtxUnknownID(t *testing.T) {
	if _, err := RunManyCtx(context.Background(), Config{Seed: 1}, []string{"nope"}, 1); err == nil {
		t.Fatal("unknown id accepted")
	}
}

// TestRunManyCtxRecoversPanics: a panicking experiment fails the battery
// with an error naming it instead of crashing the process, and with two
// panicking experiments the error names the first in ids order at every
// worker count, so it does not depend on the schedule.
func TestRunManyCtxRecoversPanics(t *testing.T) {
	boom := func(Config) []*Table { panic("boom") }
	for _, id := range []string{"test-panic-a", "test-panic-b"} {
		registry[id] = boom
		defer delete(registry, id)
	}
	ids := []string{"table7", "test-panic-b", "fig2", "test-panic-a"}
	for _, workers := range []int{1, 2, 4} {
		results, err := RunManyCtx(context.Background(), Config{Seed: 1, Quick: true}, ids, workers)
		if err == nil || !strings.Contains(err.Error(), "test-panic-b panicked: boom") {
			t.Fatalf("workers=%d: error = %v, want one naming test-panic-b", workers, err)
		}
		if results != nil {
			t.Fatalf("workers=%d: results = %d entries, want nil after a panic", workers, len(results))
		}
	}
}
