// Package ga implements the real-coded genetic algorithm the paper uses
// to optimize test vectors. The paper's configuration (§2.4): 128
// individuals, 15 generations, 50% reproduction rate, 40% mutation rate,
// roulette-wheel selection, and the generation count as the stop
// criterion. The fitness function is supplied by the caller (for the
// paper's problem: 1/(1+I) with I the trajectory intersection count).
//
// The engine is deterministic for a fixed seed: all stochastic decisions
// draw from one *rand.Rand in a fixed order, while fitness evaluations —
// which consume no randomness — may fan out over worker goroutines inside
// the caller's batch evaluator.
package ga

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"

	"repro/internal/rerr"
)

// The three GA parameters every program runs with at one value.
const (
	// reproductionRate is the fraction of each new generation produced
	// by crossover (paper: 0.5); the rest are selected survivors.
	reproductionRate = 0.5
	// elitism is how many of the best individuals pass unchanged into
	// each generation, so the reported best never regresses.
	elitism = 1
	// mutSigma is the Gaussian mutation step as a fraction of each
	// gene's interval width (the paper leaves it unspecified).
	mutSigma = 0.1
)

// Interval bounds one gene.
type Interval struct {
	Lo, Hi float64
}

// Width returns Hi - Lo.
func (iv Interval) Width() float64 { return iv.Hi - iv.Lo }

// Clamp restricts v to the interval.
func (iv Interval) Clamp(v float64) float64 {
	return math.Max(iv.Lo, math.Min(iv.Hi, v))
}

// Problem is a bounded maximization problem over real gene vectors.
type Problem struct {
	// Bounds gives one interval per gene; its length is the genome size.
	Bounds []Interval
	// BatchFitness scores a whole generation in one call: it must set
	// out[i] to the fitness of genomes[i] for every i. Fitness must be
	// finite and >= 0 (roulette selection interprets it as probability
	// mass; NaN and negative values are clamped to 0), and larger is
	// better. It is called once per generation from the Run goroutine
	// with only the genomes that need scoring; how the implementation
	// parallelizes internally is its own business — per-genome results
	// must not depend on evaluation order, which keeps runs
	// deterministic for a fixed seed at any parallelism. Batching lets
	// the evaluator amortize per-call setup (scratch buffers, per-worker
	// solver state) across the generation instead of paying it per
	// individual.
	BatchFitness func(genomes [][]float64, out []float64)
}

// SelectionMethod names a parent-selection strategy.
type SelectionMethod int

const (
	// Roulette is fitness-proportional selection, the paper's "mining
	// method".
	Roulette SelectionMethod = iota
	// Tournament selects the best of 2 random individuals.
	Tournament
	// Rank is linear rank-based selection, robust to fitness scaling.
	Rank
)

func (s SelectionMethod) String() string {
	switch s {
	case Roulette:
		return "roulette"
	case Tournament:
		return "tournament"
	case Rank:
		return "rank"
	default:
		return fmt.Sprintf("SelectionMethod(%d)", int(s))
	}
}

// Config holds the GA hyperparameters.
type Config struct {
	// PopSize is the population size (paper: 128).
	PopSize int
	// Generations is the stop criterion (paper: 15).
	Generations int
	// MutationRate is the per-individual mutation probability
	// (paper: 0.4).
	MutationRate float64
	// Selection picks the parent-selection strategy (paper: Roulette).
	Selection SelectionMethod
	// Workers is the fitness fan-out of the caller's BatchFitness; Run
	// itself does not read it. core.Optimize sizes its evaluation pool
	// from it (≤ 0 means one worker per CPU). The worker count never
	// affects results: fitness evaluations consume no randomness, so
	// runs are deterministic for a fixed seed at any parallelism.
	Workers int
	// Progress, when non-nil, is called once per generation (from the
	// Run goroutine, after the generation's statistics are computed).
	// It is a hook for progress streaming, not a paper parameter.
	Progress func(GenStats)
}

// PaperConfig returns the configuration of the paper's §2.4. Its 50%
// reproduction rate, the single-individual elitism and the 10% Gaussian
// mutation step are fixed for every run (reproductionRate, elitism,
// mutSigma). Workers is left at 0 (one worker per CPU); this cannot
// perturb results for a fixed seed — see Config.Workers.
func PaperConfig() Config {
	return Config{
		PopSize:      128,
		Generations:  15,
		MutationRate: 0.4,
		Selection:    Roulette,
	}
}

// Validate reports configuration errors; they wrap rerr.ErrBadConfig.
func (c Config) Validate() error {
	if c.PopSize < 2 {
		return fmt.Errorf("ga: %w: population size %d < 2", rerr.ErrBadConfig, c.PopSize)
	}
	if c.Generations < 1 {
		return fmt.Errorf("ga: %w: generations %d < 1", rerr.ErrBadConfig, c.Generations)
	}
	if c.MutationRate < 0 || c.MutationRate > 1 {
		return fmt.Errorf("ga: %w: mutation rate %g outside [0,1]", rerr.ErrBadConfig, c.MutationRate)
	}
	return nil
}

// GenStats summarizes one generation. The JSON tags give persisted GA
// histories (see the artifact envelope) a stable schema.
type GenStats struct {
	Generation  int       `json:"generation"`
	Best        float64   `json:"best"`
	Mean        float64   `json:"mean"`
	Worst       float64   `json:"worst"`
	BestGenes   []float64 `json:"best_genes"`
	Evaluations int       `json:"evaluations"` // cumulative fitness evaluations so far
}

// Result is the outcome of a GA run.
type Result struct {
	// Best is the best genome ever seen.
	Best []float64
	// BestFitness is its fitness.
	BestFitness float64
	// History has one entry per generation.
	History []GenStats
	// Evaluations counts total fitness calls.
	Evaluations int
}

type individual struct {
	genes   []float64
	fitness float64
	scored  bool
}

// Run executes the GA. The rng drives every stochastic choice; pass
// rand.New(rand.NewSource(seed)) for reproducibility.
//
// The context is checked before and after every generation's
// BatchFitness call; stopping inside the call is the evaluator's
// business (core.Optimize's stops within one in-flight evaluation per
// worker). A generation that ends canceled is discarded, and the
// returned error wraps both rerr.ErrCanceled and the context's own
// error. A nil context is treated as context.Background(). Cancellation
// cannot perturb results: an uncanceled run evaluates exactly what it
// always did.
func Run(ctx context.Context, p Problem, cfg Config, rng *rand.Rand) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if len(p.Bounds) == 0 {
		return nil, fmt.Errorf("ga: %w: empty genome bounds", rerr.ErrBadConfig)
	}
	for i, b := range p.Bounds {
		if !(b.Lo < b.Hi) || math.IsNaN(b.Lo) || math.IsNaN(b.Hi) {
			return nil, fmt.Errorf("ga: %w: bad bounds for gene %d: [%g, %g]", rerr.ErrBadConfig, i, b.Lo, b.Hi)
		}
	}
	if p.BatchFitness == nil {
		return nil, fmt.Errorf("ga: %w: nil BatchFitness", rerr.ErrBadConfig)
	}
	if rng == nil {
		return nil, fmt.Errorf("ga: %w: nil rng", rerr.ErrBadConfig)
	}

	pop := make([]individual, cfg.PopSize)
	for i := range pop {
		pop[i] = individual{genes: randomGenome(p.Bounds, rng)}
	}

	res := &Result{}
	evals := 0
	for gen := 0; gen < cfg.Generations; gen++ {
		n, err := evaluate(ctx, pop, p.BatchFitness)
		evals += n
		if err != nil {
			return nil, err
		}
		sortByFitness(pop)

		stats := summarize(pop, gen, evals)
		res.History = append(res.History, stats)
		if pop[0].fitness > res.BestFitness || res.Best == nil {
			res.Best = append([]float64(nil), pop[0].genes...)
			res.BestFitness = pop[0].fitness
		}
		if cfg.Progress != nil {
			cfg.Progress(stats)
		}

		if gen == cfg.Generations-1 {
			break
		}
		pop = nextGeneration(pop, p, cfg, rng)
	}
	res.Evaluations = evals
	return res, nil
}

func randomGenome(bounds []Interval, rng *rand.Rand) []float64 {
	g := make([]float64, len(bounds))
	for i, b := range bounds {
		g[i] = b.Lo + rng.Float64()*b.Width()
	}
	return g
}

// evaluate scores the generation's unscored individuals with one
// BatchFitness call, returning how many fitness evaluations it made. The
// context is checked before the call and again after it returns: a
// cancellation mid-batch (observed by the evaluator through the same
// context) discards the partial scores and reports rerr.Canceled, so a
// canceled run never commits half-scored generations.
func evaluate(ctx context.Context, pop []individual, bf func([][]float64, []float64)) (int, error) {
	if err := ctx.Err(); err != nil {
		return 0, rerr.Canceled(err)
	}
	idxs := make([]int, 0, len(pop))
	genomes := make([][]float64, 0, len(pop))
	for i := range pop {
		if !pop[i].scored {
			idxs = append(idxs, i)
			genomes = append(genomes, pop[i].genes)
		}
	}
	if len(genomes) == 0 {
		return 0, nil
	}
	out := make([]float64, len(genomes))
	bf(genomes, out)
	if err := ctx.Err(); err != nil {
		return 0, rerr.Canceled(err)
	}
	for k, i := range idxs {
		f := out[k]
		if math.IsNaN(f) || f < 0 {
			f = 0 // defensive: keep roulette well-defined
		}
		pop[i].fitness = f
		pop[i].scored = true
	}
	return len(genomes), nil
}

func sortByFitness(pop []individual) {
	sort.SliceStable(pop, func(i, j int) bool { return pop[i].fitness > pop[j].fitness })
}

func summarize(pop []individual, gen, evals int) GenStats {
	var sum float64
	for _, ind := range pop {
		sum += ind.fitness
	}
	return GenStats{
		Generation:  gen,
		Best:        pop[0].fitness,
		Mean:        sum / float64(len(pop)),
		Worst:       pop[len(pop)-1].fitness,
		BestGenes:   append([]float64(nil), pop[0].genes...),
		Evaluations: evals,
	}
}

// nextGeneration builds the successor population: elites first, then
// crossover offspring (reproductionRate of the population), then selected
// survivors; non-elites face mutation.
func nextGeneration(pop []individual, p Problem, cfg Config, rng *rand.Rand) []individual {
	n := len(pop)
	next := make([]individual, 0, n)

	for i := 0; i < elitism; i++ {
		elite := individual{genes: append([]float64(nil), pop[i].genes...), fitness: pop[i].fitness, scored: true}
		next = append(next, elite)
	}

	sel := newSelector(pop, cfg.Selection, rng)
	offspring := int(math.Round(reproductionRate * float64(n)))
	for len(next) < elitism+offspring && len(next) < n {
		a := sel.pick()
		b := sel.pick()
		child := crossover(a.genes, b.genes, rng)
		next = append(next, individual{genes: child})
	}
	for len(next) < n {
		s := sel.pick()
		next = append(next, individual{genes: append([]float64(nil), s.genes...), fitness: s.fitness, scored: true})
	}

	for i := elitism; i < n; i++ {
		if rng.Float64() < cfg.MutationRate {
			mutate(next[i].genes, p.Bounds, mutSigma, rng)
			next[i].scored = false
		}
	}
	return next
}

type selector struct {
	pop    []individual
	method SelectionMethod
	rng    *rand.Rand
	cum    []float64 // cumulative fitness for roulette / rank mass
}

// newSelector precomputes the selection distribution over the (sorted)
// population.
func newSelector(pop []individual, m SelectionMethod, rng *rand.Rand) *selector {
	s := &selector{pop: pop, method: m, rng: rng}
	switch m {
	case Roulette:
		s.cum = make([]float64, len(pop))
		acc := 0.0
		for i, ind := range pop {
			acc += ind.fitness
			s.cum[i] = acc
		}
	case Rank:
		// pop is sorted best-first; rank mass n, n-1, ..., 1.
		s.cum = make([]float64, len(pop))
		acc := 0.0
		for i := range pop {
			acc += float64(len(pop) - i)
			s.cum[i] = acc
		}
	}
	return s
}

func (s *selector) pick() individual {
	n := len(s.pop)
	switch s.method {
	case Tournament:
		a := s.rng.Intn(n)
		b := s.rng.Intn(n)
		if s.pop[a].fitness >= s.pop[b].fitness {
			return s.pop[a]
		}
		return s.pop[b]
	default:
		total := s.cum[n-1]
		if total <= 0 {
			return s.pop[s.rng.Intn(n)] // degenerate: uniform
		}
		r := s.rng.Float64() * total
		i := sort.SearchFloat64s(s.cum, r)
		if i >= n {
			i = n - 1
		}
		return s.pop[i]
	}
}

// crossover blends the parents gene-wise with a random weight
// (arithmetic crossover).
func crossover(a, b []float64, rng *rand.Rand) []float64 {
	child := make([]float64, len(a))
	for i := range child {
		w := rng.Float64()
		child[i] = w*a[i] + (1-w)*b[i]
	}
	return child
}

func mutate(genes []float64, bounds []Interval, sigma float64, rng *rand.Rand) {
	// Perturb one random gene with a Gaussian step; with 20% probability
	// reset it uniformly instead, which preserves global exploration.
	i := rng.Intn(len(genes))
	b := bounds[i]
	if rng.Float64() < 0.2 {
		genes[i] = b.Lo + rng.Float64()*b.Width()
		return
	}
	genes[i] = b.Clamp(genes[i] + rng.NormFloat64()*sigma*b.Width())
}
