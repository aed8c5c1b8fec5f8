package fanout

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/rerr"
)

func TestRunCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := Run(ctx, 10000, 4, func(_, i int) error {
		if ran.Add(1) == 10 {
			cancel()
		}
		return nil
	})
	if !errors.Is(err, rerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if n := ran.Load(); n >= 10000 {
		t.Fatalf("cancellation did not stop dispatch (ran %d)", n)
	}
	// The first item error is returned and stops dispatch, inline and on
	// the pool.
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := Run(context.Background(), 10000, workers, func(_, i int) error {
			if ran.Add(1) == 10 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if n := ran.Load(); n >= 10000 {
			t.Fatalf("workers=%d: item error did not stop dispatch (ran %d)", workers, n)
		}
	}
	// An item error outranks a cancellation that happens while that
	// item runs.
	for _, workers := range []int{1, 4} {
		ctx, cancel := context.WithCancel(context.Background())
		err := Run(ctx, 10000, workers, func(_, i int) error {
			if i == 10 {
				cancel()
				return boom
			}
			return nil
		})
		cancel()
		if !errors.Is(err, boom) || errors.Is(err, rerr.ErrCanceled) {
			t.Fatalf("workers=%d: err = %v, want boom alone", workers, err)
		}
	}
	// A cancellation that keeps no item from running is not an error.
	for _, workers := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		var ran atomic.Int64
		err := Run(ctx, 4, workers, func(_, i int) error {
			if ran.Add(1) == 4 {
				cancel()
			}
			return nil
		})
		cancel()
		if err != nil {
			t.Fatalf("workers=%d: every item ran, err = %v", workers, err)
		}
	}
	if err := Run(context.Background(), 0, 1, func(int, int) error { return nil }); err == nil {
		t.Fatal("zero items accepted")
	}
	if err := Run(context.Background(), 1, 1, nil); err == nil {
		t.Fatal("nil function accepted")
	}
	// nil context is allowed (background semantics).
	var hits atomic.Int64
	if err := Run(nil, 8, 3, func(int, int) error { hits.Add(1); return nil }); err != nil { //nolint:staticcheck
		t.Fatal(err)
	}
	if hits.Load() != 8 {
		t.Fatalf("ran %d items, want 8", hits.Load())
	}
}

// TestRunWorkerIndex: w stays in [0, Workers(n, workers)), and Workers
// applies the one-per-CPU default and the cap at n.
func TestRunWorkerIndex(t *testing.T) {
	const n = 10
	for _, workers := range []int{-1, 0, 1, 3, 100} {
		want := workers
		if workers <= 0 {
			want = runtime.NumCPU()
		}
		want = min(want, n)
		if got := Workers(n, workers); got != want {
			t.Fatalf("Workers(%d, %d) = %d, want %d", n, workers, got, want)
		}
		var bad atomic.Int64
		bad.Store(-1)
		err := Run(context.Background(), n, workers, func(w, _ int) error {
			if w < 0 || w >= want {
				bad.Store(int64(w))
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if w := bad.Load(); w >= 0 {
			t.Fatalf("workers=%d: item ran on worker %d, outside [0, %d)", workers, w, want)
		}
	}
}

// TestRunCancelFinishesHeldItems: once the context is canceled, each
// worker finishes the item it holds and starts no other.
func TestRunCancelFinishesHeldItems(t *testing.T) {
	const n, workers = 64, 2
	var ran atomic.Int64
	inFlight := make(chan struct{}, n)
	gate := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		// Wait until both workers hold an item, then cancel and
		// release them.
		<-inFlight
		<-inFlight
		cancel()
		close(gate)
	}()
	err := Run(ctx, n, workers, func(int, int) error {
		ran.Add(1)
		inFlight <- struct{}{}
		<-gate
		return nil
	})
	if !errors.Is(err, rerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if got := ran.Load(); got != workers {
		t.Fatalf("%d items ran, want the %d held at cancellation", got, workers)
	}
}
