package repro

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ga"
	"repro/internal/trajectory"
)

// TestFitnessPathAllocationFree is the steady-state allocation
// regression guard for the GA's hot loop: once a trajectory.Builder is
// warm, rebuilding the map for a fresh test vector and counting its
// intersections must not allocate. A regression here silently multiplies
// back into hundreds of thousands of allocations per GA run (128
// individuals × 15 generations), which is exactly what the
// engine/dictionary/trajectory reuse APIs exist to prevent. It runs at
// vectors near (0.5, 2) and at seeded vectors drawn as the GA draws them,
// log-uniform over PaperOptimizeConfig's band, where degenerate and
// collinear segment pairs reach every branch of the intersection count.
func TestFitnessPathAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; counts are meaningless")
	}
	s, err := NewSession(PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	b := trajectory.NewBuilder(s.Dictionary())
	cfg := PaperOptimizeConfig(s.CUT().Omega0)
	lo, hi := math.Log10(cfg.BandLo), math.Log10(cfg.BandHi)
	rng := rand.New(rand.NewSource(1))
	omegas := []float64{0.5, 2}
	for _, tc := range []struct {
		name string
		runs int
		next func(i int) // sets omegas for run i
	}{
		{"near-0.5-2", 100, func(i int) {
			omegas[0] = 0.5 + float64(i%100)*1e-5
			omegas[1] = 2 + float64(i%100)*1e-5
		}},
		{"ga-band", 500, func(int) {
			for j := range omegas {
				omegas[j] = math.Pow(10, lo+(hi-lo)*rng.Float64())
			}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			eval := func() {
				m, err := b.Build(nil, omegas)
				if err != nil {
					t.Fatal(err)
				}
				if n := m.Intersections(); n < 0 {
					t.Fatal("negative intersection count")
				}
			}
			// Warm up the builder's scratch, then vary the test vector
			// per run so nothing can hide behind value-keyed caching.
			tc.next(0)
			eval()
			i := 0
			avg := testing.AllocsPerRun(tc.runs, func() {
				i++
				tc.next(i)
				eval()
			})
			// A strict 0 would flake when the GC empties the engine's
			// workspace pool mid-measurement; anything under one
			// allocation per evaluation still proves the steady state
			// reuses its storage.
			if avg >= 1 {
				t.Fatalf("fitness path allocates %.2f objects/run in steady state, want < 1", avg)
			}
		})
	}
}

// TestOptimizeBatchedMatchesPerIndividualGA: ATPG.Optimize evaluates
// fitness through the generation-batched hook with per-worker builders
// on a worker pool; this pins it bit-for-bit against an
// independently-assembled GA that scores each individual serially with
// a fresh trajectory.Build over the same objective (the paper's
// 1/(1+I)), for the same seed.
func TestOptimizeBatchedMatchesPerIndividualGA(t *testing.T) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	cfg := PaperOptimizeConfig(s.CUT().Omega0)
	cfg.GA.PopSize, cfg.GA.Generations = 24, 6
	cfg.Seed = 17
	tv, err := s.Optimize(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}

	lo, hi := math.Log10(cfg.BandLo), math.Log10(cfg.BandHi)
	bounds := make([]ga.Interval, cfg.NumFrequencies)
	for i := range bounds {
		bounds[i] = ga.Interval{Lo: lo, Hi: hi}
	}
	problem := ga.Problem{
		Bounds: bounds,
		BatchFitness: func(genomes [][]float64, out []float64) {
			for k, genes := range genomes {
				omegas := make([]float64, len(genes))
				for i, g := range genes {
					omegas[i] = math.Pow(10, g)
				}
				m, err := trajectory.Build(nil, s.Dictionary(), omegas)
				if err != nil {
					out[k] = 0
					continue
				}
				out[k] = 1 / (1 + float64(m.Intersections()))
			}
		},
	}
	res, err := ga.Run(nil, problem, cfg.GA, rand.New(rand.NewSource(cfg.Seed)))
	if err != nil {
		t.Fatal(err)
	}
	if tv.Fitness != res.BestFitness || tv.Evaluations != res.Evaluations {
		t.Fatalf("batched (fit %v, %d evals) != per-individual (fit %v, %d evals)",
			tv.Fitness, tv.Evaluations, res.BestFitness, res.Evaluations)
	}
	if !reflect.DeepEqual(tv.History, res.History) {
		t.Fatal("batched and per-individual GA histories differ")
	}
	want := make([]float64, len(res.Best))
	for i, g := range res.Best {
		want[i] = math.Pow(10, g)
	}
	for _, w := range want {
		found := false
		for _, o := range tv.Omegas {
			if o == w {
				found = true
			}
		}
		if !found {
			t.Fatalf("best vectors differ: %v vs (unsorted) %v", tv.Omegas, want)
		}
	}
}

// TestOptimizeWorkerCountInvariance: fixed-seed GA results (best genes,
// fitness, full history) must be identical at every worker count,
// including the inline Workers==1 path.
func TestOptimizeWorkerCountInvariance(t *testing.T) {
	run := func(workers int) *TestVector {
		s, err := NewSession(PaperCUT(), WithWorkers(workers))
		if err != nil {
			t.Fatal(err)
		}
		cfg := PaperOptimizeConfig(s.CUT().Omega0)
		cfg.GA.PopSize, cfg.GA.Generations = 32, 6
		cfg.Seed = 23
		tv, err := s.Optimize(nil, cfg)
		if err != nil {
			t.Fatal(err)
		}
		return tv
	}
	ref := run(1)
	for _, workers := range []int{2, 3, 8} {
		got := run(workers)
		if !reflect.DeepEqual(got, ref) {
			t.Fatalf("workers=%d changed the fixed-seed result:\n got %+v\nwant %+v", workers, got, ref)
		}
	}
}
