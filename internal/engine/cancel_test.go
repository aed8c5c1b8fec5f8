package engine

import (
	"context"
	"errors"
	"sync"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/rerr"
)

func testEngine(t testing.TB) (*Engine, []fault.Fault) {
	t.Helper()
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	return eng, u.Faults()
}

// TestBatchCanceledBeforeStart: an already-canceled context returns
// ErrCanceled without solving any column.
func TestBatchCanceledBeforeStart(t *testing.T) {
	eng, faults := testEngine(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		_, err := eng.BatchResponses(ctx, faults, numeric.Logspace(0.01, 100, 16), workers)
		if !errors.Is(err, rerr.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want ErrCanceled", workers, err)
		}
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("workers=%d: err = %v, want context.Canceled in chain", workers, err)
		}
	}
}

// testPlan resolves items onto eng.
func testPlan[S fault.Set](t testing.TB, eng *Engine, items []S) *Plan {
	t.Helper()
	var p Plan
	if err := Resolve(eng, items, &p); err != nil {
		t.Fatal(err)
	}
	return &p
}

// TestBatchCanceledMidway: cancellation from inside a progress callback
// stops the solve within one in-flight column per worker.
func TestBatchCanceledMidway(t *testing.T) {
	eng, faults := testEngine(t)
	plan := testPlan(t, eng, faults)
	grid := numeric.Logspace(0.01, 100, 64)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var mu sync.Mutex
	solved := 0
	const workers = 2
	err := eng.SolveInto(ctx, plan, grid, workers, func(done, total int) {
		mu.Lock()
		defer mu.Unlock()
		solved++
		if solved == 2 {
			cancel()
		}
	}, &Batch{})
	if !errors.Is(err, rerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	mu.Lock()
	defer mu.Unlock()
	// 2 columns triggered the cancel; each worker may finish one more.
	if solved > 2+workers {
		t.Fatalf("%d columns solved after cancellation, want <= %d", solved, 2+workers)
	}
}

// TestBatchProgressCountsEveryColumn: the hook reports each column once
// and ends at total, at any worker count.
func TestBatchProgressCountsEveryColumn(t *testing.T) {
	eng, faults := testEngine(t)
	plan := testPlan(t, eng, faults)
	grid := numeric.Logspace(0.1, 10, 9)
	for _, workers := range []int{1, 3} {
		var mu sync.Mutex
		var dones []int
		batch := &Batch{}
		err := eng.SolveInto(nil, plan, grid, workers, func(done, total int) {
			mu.Lock()
			defer mu.Unlock()
			if total != len(grid) {
				t.Errorf("total = %d, want %d", total, len(grid))
			}
			dones = append(dones, done)
		}, batch)
		if err != nil {
			t.Fatal(err)
		}
		if len(batch.Mags) != len(faults) {
			t.Fatalf("batch rows = %d", len(batch.Mags))
		}
		if len(dones) != len(grid) {
			t.Fatalf("workers=%d: %d progress events, want %d", workers, len(dones), len(grid))
		}
		seen := make(map[int]bool)
		for _, d := range dones {
			if d < 1 || d > len(grid) || seen[d] {
				t.Fatalf("workers=%d: bad done sequence %v", workers, dones)
			}
			seen[d] = true
		}
	}
}

// TestUnknownComponentIsStructured: resolving a fault against a missing
// element reports ErrUnknownComponent.
func TestUnknownComponentIsStructured(t *testing.T) {
	eng, _ := testEngine(t)
	var p Plan
	err := Resolve(eng, []fault.Set{fault.Fault{Component: "R99", Deviation: 0.2}}, &p)
	if !errors.Is(err, rerr.ErrUnknownComponent) {
		t.Fatalf("err = %v, want ErrUnknownComponent", err)
	}
	_, err = eng.BatchResponses(nil, []fault.Fault{{Component: "nope", Deviation: 0.1}}, []float64{1, 2}, 1)
	if !errors.Is(err, rerr.ErrUnknownComponent) {
		t.Fatalf("batch err = %v, want ErrUnknownComponent", err)
	}
}
