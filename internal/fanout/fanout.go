// Package fanout is the worker pool every parallel loop of the module
// runs on: the engine's frequency groups, the GA's generation scoring and
// the Monte-Carlo samples behind the signature clouds. Run hands item
// indices to goroutines in index order, and each caller writes only item
// i's result, so what it computes is the same at every worker count.
package fanout

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rerr"
)

// Workers returns the goroutine count Run uses for n items: workers, or
// one per CPU when workers ≤ 0, capped at n.
func Workers(n, workers int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	return min(workers, n)
}

// Run calls f(w, i) once for every item i ∈ [0, n) on Workers(n, workers)
// goroutines. w ∈ [0, Workers(n, workers)) names the goroutine, so f may
// index per-worker scratch by it. Items are handed out in index order and
// complete in any order; f must be safe for concurrent calls on
// different items.
//
// The context is checked before each item. The first error f returns
// stops dispatch and is Run's result. Otherwise Run returns an error
// wrapping rerr.ErrCanceled and the context's error only if cancellation
// kept an item from running; each worker finishes at most the item it
// holds. With one worker the items run inline on the caller's goroutine.
// A nil context means context.Background().
func Run(ctx context.Context, n, workers int, f func(w, i int) error) error {
	if n < 1 {
		return fmt.Errorf("fanout: %w: %d items < 1", rerr.ErrBadConfig, n)
	}
	if f == nil {
		return fmt.Errorf("fanout: %w: nil item function", rerr.ErrBadConfig)
	}
	if ctx == nil {
		ctx = context.Background()
	}
	workers = Workers(n, workers)
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return rerr.Canceled(err)
			}
			if err := f(0, i); err != nil {
				return err
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		canceled atomic.Bool
		once     sync.Once
		first    error
		wg       sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for !stop.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if ctx.Err() != nil {
					canceled.Store(true)
					return
				}
				if err := f(w, i); err != nil {
					once.Do(func() { first = err })
					stop.Store(true)
					return
				}
			}
		}()
	}
	wg.Wait()
	if first != nil {
		return first
	}
	if canceled.Load() {
		return rerr.Canceled(ctx.Err())
	}
	return nil
}
