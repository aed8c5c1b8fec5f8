package montecarlo

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"

	"repro/internal/rerr"
)

func TestForEachCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int64
	err := ForEach(ctx, 10000, 4, func(i int) error {
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
	// The first trial error is returned and stops dispatch, on the
	// sequential path and on the pool.
	boom := errors.New("boom")
	for _, workers := range []int{1, 4} {
		var ran atomic.Int64
		err := ForEach(context.Background(), 10000, workers, func(i int) error {
			if ran.Add(1) == 10 {
				return boom
			}
			return nil
		})
		if !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want boom", workers, err)
		}
		if n := ran.Load(); n >= 10000 {
			t.Fatalf("workers=%d: trial error did not stop dispatch (ran %d)", workers, n)
		}
	}
	if err := ForEach(context.Background(), 0, 1, func(int) error { return nil }); err == nil {
		t.Fatal("zero trials accepted")
	}
	if err := ForEach(context.Background(), 1, 1, nil); err == nil {
		t.Fatal("nil function accepted")
	}
	// nil context is allowed (background semantics).
	var hits atomic.Int64
	if err := ForEach(nil, 8, 3, func(int) error { hits.Add(1); return nil }); err != nil { //nolint:staticcheck
		t.Fatal(err)
	}
	if hits.Load() != 8 {
		t.Fatalf("ran %d trials, want 8", hits.Load())
	}
}
