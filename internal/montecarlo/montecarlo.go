// Package montecarlo is the worker pool that Monte-Carlo sampling runs
// on: ForEach fans trial indices out to context-aware workers. probdiag
// builds its signature clouds on it, one seeded RNG and one result slot
// per sample, so a build is the same at every worker count.
package montecarlo

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/rerr"
)

// ForEach runs f(trial) for every trial ∈ [0, trials) on a pool of
// context-aware workers (workers ≤ 0 means NumCPU; the pool never
// exceeds the trial count). Trials are dispatched in index order but
// complete in any order — f must be safe for concurrent calls and
// should write results into per-trial slots so the overall outcome is
// deterministic at every worker count. The first trial error stops
// dispatch and is returned; a canceled context returns an error
// wrapping rerr.ErrCanceled.
func ForEach(ctx context.Context, trials, workers int, f func(trial int) error) error {
	if trials < 1 {
		return fmt.Errorf("montecarlo: trials %d < 1", trials)
	}
	if f == nil {
		return fmt.Errorf("montecarlo: nil trial function")
	}
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > trials {
		workers = trials
	}
	if workers == 1 {
		for i := 0; i < trials; i++ {
			if ctx != nil {
				if err := ctx.Err(); err != nil {
					return rerr.Canceled(err)
				}
			}
			if err := f(i); err != nil {
				return fmt.Errorf("montecarlo: trial %d: %w", i, err)
			}
		}
		return nil
	}
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	fail := func(err error) {
		mu.Lock()
		if firstErr == nil {
			firstErr = err
		}
		mu.Unlock()
		stop.Store(true)
	}
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				i := int(next.Add(1)) - 1
				if i >= trials {
					return
				}
				if ctx != nil {
					if err := ctx.Err(); err != nil {
						fail(rerr.Canceled(err))
						return
					}
				}
				if err := f(i); err != nil {
					fail(fmt.Errorf("montecarlo: trial %d: %w", i, err))
					return
				}
			}
		}()
	}
	wg.Wait()
	return firstErr
}
