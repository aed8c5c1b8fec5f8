package ga

import (
	"context"
	"errors"
	"math/rand"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/fanout"
	"repro/internal/rerr"
)

// TestCancelStopsMidGeneration verifies the prompt-cancellation contract
// of a generation scored on fanout.Run, as core.Optimize scores it: once
// the context is canceled, each worker finishes at most the fitness
// evaluation it already has in flight, the rest of the generation is not
// run, and Run discards the generation.
func TestCancelStopsMidGeneration(t *testing.T) {
	const popSize, workers = 64, 2
	var evals atomic.Int64
	inFlight := make(chan struct{}, popSize)
	gate := make(chan struct{})
	ctx, cancel := context.WithCancel(context.Background())
	p := Problem{
		Bounds: []Interval{{0, 1}},
		BatchFitness: func(genomes [][]float64, out []float64) {
			_ = fanout.Run(ctx, len(genomes), workers, func(_, i int) error {
				evals.Add(1)
				inFlight <- struct{}{}
				<-gate // slow fitness: blocks until the test releases it
				out[i] = 1
				return nil
			})
		},
	}
	cfg := Config{PopSize: popSize, Generations: 3, MutationRate: 0.4}

	go func() {
		// Wait until both workers hold an evaluation, then cancel and
		// unblock everything.
		<-inFlight
		<-inFlight
		cancel()
		close(gate)
	}()

	res, err := Run(ctx, p, cfg, rand.New(rand.NewSource(1)))
	if err == nil {
		t.Fatal("canceled run returned no error")
	}
	if res != nil {
		t.Fatal("canceled run returned a result")
	}
	if !errors.Is(err, rerr.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	// At most one in-flight evaluation per worker after cancel, plus the
	// ones that started before: far fewer than a full generation.
	if n := evals.Load(); n > 2*workers {
		t.Fatalf("%d evaluations ran after cancellation window, want <= %d", n, 2*workers)
	}
}

// TestDeadlineStopsAtGenerationBoundary exercises the per-generation
// checkpoint with an already-expired deadline.
func TestDeadlineStopsAtGenerationBoundary(t *testing.T) {
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	evals := 0
	p := Problem{
		Bounds:       []Interval{{0, 1}},
		BatchFitness: batchOf(func([]float64) float64 { evals++; return 1 }),
	}
	cfg := Config{PopSize: 8, Generations: 5, MutationRate: 0.4}
	_, err := Run(ctx, p, cfg, rand.New(rand.NewSource(1)))
	if !errors.Is(err, rerr.ErrCanceled) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want ErrCanceled wrapping DeadlineExceeded", err)
	}
	if evals != 0 {
		t.Fatalf("%d evaluations ran under an expired deadline", evals)
	}
}

// TestProgressCallbackPerGeneration checks the per-generation progress
// hook fires in order with the generation's statistics.
func TestProgressCallbackPerGeneration(t *testing.T) {
	var seen []GenStats
	cfg := Config{PopSize: 12, Generations: 4, MutationRate: 0.4,
		Progress: func(st GenStats) { seen = append(seen, st) }}
	res, err := Run(nil, sphere(1), cfg, rand.New(rand.NewSource(8)))
	if err != nil {
		t.Fatal(err)
	}
	if len(seen) != cfg.Generations {
		t.Fatalf("progress fired %d times, want %d", len(seen), cfg.Generations)
	}
	for i, st := range seen {
		if st.Generation != i {
			t.Fatalf("event %d labeled generation %d", i, st.Generation)
		}
	}
	if seen[len(seen)-1].Best != res.History[len(res.History)-1].Best {
		t.Fatal("final progress event disagrees with history")
	}
}

// TestCancellationDoesNotPerturbResults: an uncanceled context must give
// bitwise-identical results to the nil-context path.
func TestCancellationDoesNotPerturbResults(t *testing.T) {
	cfg := PaperConfig()
	cfg.PopSize, cfg.Generations = 20, 5
	a, err := Run(nil, sphere(0.5), cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	b, err := Run(ctx, sphere(0.5), cfg, rand.New(rand.NewSource(42)))
	if err != nil {
		t.Fatal(err)
	}
	if a.BestFitness != b.BestFitness || a.Evaluations != b.Evaluations {
		t.Fatalf("live context changed results: %v vs %v", a.BestFitness, b.BestFitness)
	}
}
