// Package core assembles the paper's contribution: the fault-trajectory
// ATPG for analog fault diagnosis. It wires the fault-simulation
// dictionary, the trajectory transformation and the GA test-vector
// optimizer (fitness = 1/(1+I)) into one pipeline, plus the baseline
// frequency-selection strategies the evaluation compares against. The
// perpendicular-projection diagnoser over the chosen vector's map lives
// in package diagnosis.
package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/dictionary"
	"repro/internal/fanout"
	"repro/internal/fault"
	"repro/internal/ga"
	"repro/internal/rerr"
	"repro/internal/trajectory"
)

// Config drives test-vector optimization.
type Config struct {
	// NumFrequencies is k, the test-vector size (paper: 2).
	NumFrequencies int
	// BandLo/BandHi bound the frequency search band in rad/s; genes live
	// in log10 space inside this band.
	BandLo, BandHi float64
	// GA holds the genetic-algorithm hyperparameters.
	GA ga.Config
	// Seed makes the run reproducible.
	Seed int64
}

// PaperOptimizeConfig returns the paper's setup for a CUT whose
// characteristic frequency is omega0: two test frequencies searched two
// decades around ω0 with the §2.4 GA parameters.
func PaperOptimizeConfig(omega0 float64) Config {
	return Config{
		NumFrequencies: 2,
		BandLo:         omega0 / 100,
		BandHi:         omega0 * 100,
		GA:             ga.PaperConfig(),
		Seed:           1,
	}
}

// Validate reports configuration errors; they wrap rerr.ErrBadConfig.
func (c Config) Validate() error {
	if c.NumFrequencies < 1 {
		return fmt.Errorf("core: %w: need at least 1 test frequency, got %d", rerr.ErrBadConfig, c.NumFrequencies)
	}
	if !(c.BandLo > 0 && c.BandHi > c.BandLo) {
		return fmt.Errorf("core: %w: bad frequency band [%g, %g]", rerr.ErrBadConfig, c.BandLo, c.BandHi)
	}
	return c.GA.Validate()
}

// TestVector is an optimized set of test frequencies with its quality
// metrics. The JSON tags define the persisted artifact schema (see the
// artifact envelope).
type TestVector struct {
	// Omegas are the test frequencies in rad/s, ascending.
	Omegas []float64 `json:"omegas"`
	// Fitness is the GA objective value of this vector.
	Fitness float64 `json:"fitness"`
	// Intersections is the paper's I for this vector.
	Intersections int `json:"intersections"`
	// History holds the GA's per-generation statistics.
	History []ga.GenStats `json:"history,omitempty"`
	// Evaluations counts fitness calls spent.
	Evaluations int `json:"evaluations"`
}

// ATPG is the fault-trajectory test generator for one circuit under
// test.
type ATPG struct {
	dict *dictionary.Dictionary
}

// New builds the ATPG: it runs the fault-simulation setup (dictionary)
// for the golden circuit over the fault universe.
func New(golden *circuit.Circuit, source, output string, u *fault.Universe) (*ATPG, error) {
	d, err := dictionary.New(golden, source, output, u)
	if err != nil {
		return nil, err
	}
	return &ATPG{dict: d}, nil
}

// Dictionary exposes the underlying fault dictionary.
func (a *ATPG) Dictionary() *dictionary.Dictionary { return a.dict }

// Fitness evaluates the GA objective for an explicit test vector — the
// same function the GA maximizes.
func (a *ATPG) Fitness(ctx context.Context, omegas []float64) (float64, error) {
	m, err := trajectory.Build(ctx, a.dict, omegas)
	if err != nil {
		return 0, err
	}
	return fitnessOf(m), nil
}

// fitnessOf is the paper's objective 1/(1+I), I = trajectory
// intersections.
func fitnessOf(m *trajectory.Map) float64 {
	return 1 / (1 + float64(m.Intersections()))
}

// Optimize searches for the best test vector with the GA. The context
// is enforced at every GA generation boundary and inside every fitness
// evaluation (per test frequency); a canceled context returns an error
// wrapping rerr.ErrCanceled within one generation.
//
// Fitness evaluation is generation-batched: each GA generation is scored
// in one ga.Problem.BatchFitness call that fans the candidates out over
// fanout.Run with cfg.GA.Workers goroutines (≤ 0 means one per CPU),
// each owning a reusable trajectory.Builder, so the steady-state fitness
// path allocates nothing. With one worker the candidates are evaluated
// inline, without goroutines. The worker count never affects results:
// each candidate's fitness is a pure function of its genes.
func (a *ATPG) Optimize(ctx context.Context, cfg Config) (*TestVector, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	bounds := make([]ga.Interval, cfg.NumFrequencies)
	lo, hi := math.Log10(cfg.BandLo), math.Log10(cfg.BandHi)
	for i := range bounds {
		bounds[i] = ga.Interval{Lo: lo, Hi: hi}
	}
	problem := ga.Problem{
		Bounds:       bounds,
		BatchFitness: a.batchFitness(ctx, fanout.Workers(cfg.GA.PopSize, cfg.GA.Workers)),
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	res, err := ga.Run(ctx, problem, cfg.GA, rng)
	if err != nil {
		return nil, err
	}
	omegas := genesToOmegas(res.Best)
	sort.Float64s(omegas)
	m, err := trajectory.Build(ctx, a.dict, omegas)
	if err != nil {
		return nil, err
	}
	return &TestVector{
		Omegas:        omegas,
		Fitness:       res.BestFitness,
		Intersections: m.Intersections(),
		History:       res.History,
		Evaluations:   res.Evaluations,
	}, nil
}

// fitnessWorker is one evaluation worker's reusable state: a trajectory
// Builder (batch scratch, map, intersection cache) and the gene→ω
// conversion buffer. Reusing it across a whole GA run is what makes the
// steady-state fitness path allocation-free.
type fitnessWorker struct {
	b      *trajectory.Builder
	omegas []float64
}

// eval scores one candidate: genes (log10 ω) → test vector → trajectory
// map → fitness. Unsolvable candidates score zero mass.
func (w *fitnessWorker) eval(ctx context.Context, genes []float64) float64 {
	w.omegas = w.omegas[:0]
	for _, g := range genes {
		w.omegas = append(w.omegas, math.Pow(10, g))
	}
	m, err := w.b.Build(ctx, w.omegas)
	if err != nil {
		return 0 // unsolvable candidate: zero mass
	}
	return fitnessOf(m)
}

// batchFitness returns the generation-batched fitness evaluator: one
// persistent fitnessWorker per worker slot, candidates handed out by
// fanout.Run. Every candidate is scored by the same pure function, so
// results are identical at any worker count. A canceled context leaves
// later candidates unscored; ga.Run discards that generation.
func (a *ATPG) batchFitness(ctx context.Context, workers int) func([][]float64, []float64) {
	ws := make([]*fitnessWorker, workers)
	for i := range ws {
		ws[i] = &fitnessWorker{b: trajectory.NewBuilder(a.dict)}
	}
	return func(genomes [][]float64, out []float64) {
		_ = fanout.Run(ctx, len(genomes), workers, func(w, i int) error {
			out[i] = ws[w].eval(ctx, genomes[i])
			return nil
		})
	}
}

func genesToOmegas(genes []float64) []float64 {
	out := make([]float64, len(genes))
	for i, g := range genes {
		out[i] = math.Pow(10, g)
	}
	return out
}

// --- Baseline frequency-selection strategies -------------------------

// RandomVector draws n random k-frequency vectors in the band and keeps
// the one with the best paper fitness — the "no optimization, same
// budget" baseline.
func (a *ATPG) RandomVector(ctx context.Context, k int, bandLo, bandHi float64, n int, rng *rand.Rand) (*TestVector, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 || n < 1 {
		return nil, fmt.Errorf("core: %w: bad random baseline k=%d n=%d", rerr.ErrBadConfig, k, n)
	}
	if !(bandLo > 0 && bandHi > bandLo) {
		return nil, fmt.Errorf("core: %w: bad band [%g, %g]", rerr.ErrBadConfig, bandLo, bandHi)
	}
	if rng == nil {
		return nil, fmt.Errorf("core: %w: nil rng", rerr.ErrBadConfig)
	}
	lo, hi := math.Log10(bandLo), math.Log10(bandHi)
	best := &TestVector{Fitness: -1}
	for trial := 0; trial < n; trial++ {
		if err := ctx.Err(); err != nil {
			return nil, rerr.Canceled(err)
		}
		omegas := make([]float64, k)
		for i := range omegas {
			omegas[i] = math.Pow(10, lo+rng.Float64()*(hi-lo))
		}
		m, err := trajectory.Build(ctx, a.dict, omegas)
		if err != nil {
			continue
		}
		fit := fitnessOf(m)
		if fit > best.Fitness {
			sort.Float64s(omegas)
			best = &TestVector{Omegas: omegas, Fitness: fit, Intersections: m.Intersections(), Evaluations: trial + 1}
		}
	}
	if best.Omegas == nil {
		return nil, fmt.Errorf("core: no solvable random vector found")
	}
	best.Evaluations = n
	return best, nil
}

// GridVector exhaustively evaluates all k-combinations of a gridSize
// log-spaced frequency grid and returns the best — the deterministic
// baseline. Cost grows as C(gridSize, k); keep gridSize modest.
func (a *ATPG) GridVector(ctx context.Context, k int, bandLo, bandHi float64, gridSize int) (*TestVector, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 || gridSize < k {
		return nil, fmt.Errorf("core: %w: bad grid baseline k=%d grid=%d", rerr.ErrBadConfig, k, gridSize)
	}
	if !(bandLo > 0 && bandHi > bandLo) {
		return nil, fmt.Errorf("core: %w: bad band [%g, %g]", rerr.ErrBadConfig, bandLo, bandHi)
	}
	grid := logspace(bandLo, bandHi, gridSize)
	best := &TestVector{Fitness: -1}
	evals := 0
	var rec func(start int, chosen []float64) error
	rec = func(start int, chosen []float64) error {
		if len(chosen) == k {
			if err := ctx.Err(); err != nil {
				return rerr.Canceled(err)
			}
			omegas := append([]float64(nil), chosen...)
			m, err := trajectory.Build(ctx, a.dict, omegas)
			if err != nil {
				return nil // skip unsolvable combos
			}
			evals++
			if fit := fitnessOf(m); fit > best.Fitness {
				best = &TestVector{Omegas: omegas, Fitness: fit, Intersections: m.Intersections()}
			}
			return nil
		}
		for i := start; i < len(grid); i++ {
			if err := rec(i+1, append(chosen, grid[i])); err != nil {
				return err
			}
		}
		return nil
	}
	if err := rec(0, nil); err != nil {
		return nil, err
	}
	if best.Omegas == nil {
		return nil, fmt.Errorf("core: grid search found no solvable vector")
	}
	best.Evaluations = evals
	return best, nil
}

// SensitivityVector picks k frequencies greedily from a log grid,
// maximizing the summed magnitude of per-component relative
// sensitivities while keeping picks at least minDecades apart — the
// classical heuristic a test engineer would use without the trajectory
// machinery.
func (a *ATPG) SensitivityVector(ctx context.Context, k int, bandLo, bandHi float64, gridSize int, minDecades float64) (*TestVector, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if k < 1 || gridSize < k {
		return nil, fmt.Errorf("core: %w: bad sensitivity baseline k=%d grid=%d", rerr.ErrBadConfig, k, gridSize)
	}
	golden := a.dict.Golden()
	u := a.dict.Universe()
	grid := logspace(bandLo, bandHi, gridSize)
	score := make([]float64, len(grid))
	for i, w := range grid {
		if err := ctx.Err(); err != nil {
			return nil, rerr.Canceled(err)
		}
		var total float64
		for _, comp := range u.Components {
			s, err := analysis.RelativeSensitivity(golden, comp, a.dict.Source(), a.dict.Output(), w, 1e-4)
			if err != nil {
				total = -1 // unsolvable frequency: never pick it
				break
			}
			total += math.Abs(s)
		}
		score[i] = total
	}
	var picked []float64
	used := make([]bool, len(grid))
	for len(picked) < k {
		bestIdx, bestScore := -1, math.Inf(-1)
		for i := range grid {
			if used[i] || score[i] < 0 {
				continue
			}
			ok := true
			for _, p := range picked {
				if math.Abs(math.Log10(grid[i])-math.Log10(p)) < minDecades {
					ok = false
					break
				}
			}
			if ok && score[i] > bestScore {
				bestIdx, bestScore = i, score[i]
			}
		}
		if bestIdx < 0 {
			return nil, fmt.Errorf("core: sensitivity baseline could not pick %d separated frequencies", k)
		}
		used[bestIdx] = true
		picked = append(picked, grid[bestIdx])
	}
	sort.Float64s(picked)
	m, err := trajectory.Build(ctx, a.dict, picked)
	if err != nil {
		return nil, err
	}
	return &TestVector{
		Omegas:        picked,
		Fitness:       fitnessOf(m),
		Intersections: m.Intersections(),
		Evaluations:   len(grid),
	}, nil
}

func logspace(lo, hi float64, n int) []float64 {
	out := make([]float64, n)
	if n == 1 {
		out[0] = lo
		return out
	}
	llo, lhi := math.Log10(lo), math.Log10(hi)
	for i := range out {
		out[i] = math.Pow(10, llo+float64(i)*(lhi-llo)/float64(n-1))
	}
	return out
}
