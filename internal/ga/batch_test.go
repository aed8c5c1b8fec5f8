package ga

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"repro/internal/rerr"
)

// TestBatchFitnessCalledOncePerGeneration: the hook must fire exactly
// Generations times, each call covering only the unscored individuals.
func TestBatchFitnessCalledOncePerGeneration(t *testing.T) {
	calls := 0
	p := sphere(0)
	score := p.BatchFitness
	p.BatchFitness = func(genomes [][]float64, out []float64) {
		calls++
		score(genomes, out)
	}
	cfg := PaperConfig()
	cfg.PopSize, cfg.Generations = 16, 5
	res, err := Run(nil, p, cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if calls != cfg.Generations {
		t.Fatalf("BatchFitness fired %d times, want %d", calls, cfg.Generations)
	}
	if res.Evaluations >= cfg.PopSize*cfg.Generations {
		t.Fatalf("%d evaluations — batching re-scored already-scored individuals", res.Evaluations)
	}
}

// TestBatchFitnessClampsBadValues: NaN and negative batch outputs are
// clamped to zero mass.
func TestBatchFitnessClampsBadValues(t *testing.T) {
	p := Problem{
		Bounds: []Interval{{0, 1}},
		BatchFitness: func(genomes [][]float64, out []float64) {
			for i := range genomes {
				switch i % 3 {
				case 0:
					out[i] = math.NaN()
				case 1:
					out[i] = -2
				default:
					out[i] = 1
				}
			}
		},
	}
	cfg := PaperConfig()
	cfg.PopSize, cfg.Generations = 9, 2
	res, err := Run(nil, p, cfg, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, st := range res.History {
		if math.IsNaN(st.Best) || math.IsNaN(st.Mean) || st.Worst < 0 {
			t.Fatalf("bad values leaked into stats: %+v", st)
		}
	}
}

// TestBatchFitnessCanceledContext: a cancellation observed around the
// batched call must surface as ErrCanceled without committing partial
// scores.
func TestBatchFitnessCanceledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	p := Problem{
		Bounds: []Interval{{0, 1}},
		BatchFitness: func(genomes [][]float64, out []float64) {
			cancel() // the evaluator observes cancellation mid-batch
			for i := range genomes {
				out[i] = 1
			}
		},
	}
	cfg := PaperConfig()
	cfg.PopSize, cfg.Generations = 8, 3
	res, err := Run(ctx, p, cfg, rand.New(rand.NewSource(9)))
	if err == nil || res != nil {
		t.Fatalf("canceled run returned (%v, %v)", res, err)
	}
	if !errors.Is(err, rerr.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
}

// TestNilBatchFitnessRejected: a problem without BatchFitness is a
// configuration error.
func TestNilBatchFitnessRejected(t *testing.T) {
	cfg := PaperConfig()
	cfg.PopSize, cfg.Generations = 8, 1
	_, err := Run(nil, Problem{Bounds: []Interval{{0, 1}}}, cfg, rand.New(rand.NewSource(1)))
	if !errors.Is(err, rerr.ErrBadConfig) {
		t.Fatalf("nil BatchFitness: err = %v, want ErrBadConfig", err)
	}
}
