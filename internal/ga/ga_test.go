package ga

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

// batchOf turns a per-genome fitness into a serial BatchFitness.
func batchOf(fit func(genes []float64) float64) func([][]float64, []float64) {
	return func(genomes [][]float64, out []float64) {
		for i, g := range genomes {
			out[i] = fit(g)
		}
	}
}

// sphere is a smooth unimodal test problem: maximize 1/(1+Σ(x-c)²).
func sphere(center float64) Problem {
	return Problem{
		Bounds: []Interval{{-5, 5}, {-5, 5}, {-5, 5}},
		BatchFitness: batchOf(func(g []float64) float64 {
			var s float64
			for _, v := range g {
				d := v - center
				s += d * d
			}
			return 1 / (1 + s)
		}),
	}
}

func TestConfigValidate(t *testing.T) {
	if err := PaperConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []Config{
		{PopSize: 1, Generations: 1},
		{PopSize: 4, Generations: 0},
		{PopSize: 4, Generations: 1, MutationRate: -0.1},
		{PopSize: 4, Generations: 1, MutationRate: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("case %d: invalid config accepted: %+v", i, c)
		}
	}
}

func TestPaperConfigMatchesPaper(t *testing.T) {
	c := PaperConfig()
	if c.PopSize != 128 || c.Generations != 15 || c.MutationRate != 0.4 || c.Selection != Roulette {
		t.Fatalf("paper config drifted: %+v", c)
	}
	if reproductionRate != 0.5 || elitism != 1 || mutSigma != 0.1 {
		t.Fatalf("fixed GA parameters drifted: reproduction %g, elitism %d, mutation step %g",
			reproductionRate, elitism, mutSigma)
	}
}

func TestRunInputValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	cfg := Config{PopSize: 8, Generations: 2}
	if _, err := Run(nil, Problem{}, cfg, rng); err == nil {
		t.Fatal("empty bounds accepted")
	}
	p := sphere(0)
	p.BatchFitness = nil
	if _, err := Run(nil, p, cfg, rng); err == nil {
		t.Fatal("nil BatchFitness accepted")
	}
	p2 := sphere(0)
	p2.Bounds[0] = Interval{3, 3}
	if _, err := Run(nil, p2, cfg, rng); err == nil {
		t.Fatal("degenerate interval accepted")
	}
	if _, err := Run(nil, sphere(0), cfg, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
	badCfg := cfg
	badCfg.PopSize = 1
	if _, err := Run(nil, sphere(0), badCfg, rng); err == nil {
		t.Fatal("invalid config accepted")
	}
}

func TestConvergesOnSphere(t *testing.T) {
	cfg := Config{PopSize: 60, Generations: 40, MutationRate: 0.4, Selection: Roulette}
	res, err := Run(nil, sphere(1.5), cfg, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness < 0.9 {
		t.Fatalf("best fitness %g, want >= 0.9", res.BestFitness)
	}
	for _, g := range res.Best {
		if math.Abs(g-1.5) > 0.5 {
			t.Fatalf("best genes %v, want near 1.5", res.Best)
		}
	}
}

func TestDeterministicForSeed(t *testing.T) {
	cfg := PaperConfig()
	cfg.PopSize = 24
	cfg.Generations = 6
	run := func() *Result {
		r, err := Run(nil, sphere(-2), cfg, rand.New(rand.NewSource(99)))
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.BestFitness != b.BestFitness || !reflect.DeepEqual(a.Best, b.Best) {
		t.Fatal("same seed produced different results")
	}
	if len(a.History) != len(b.History) {
		t.Fatal("history lengths differ")
	}
	c, err := Run(nil, sphere(-2), cfg, rand.New(rand.NewSource(100)))
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(a.Best, c.Best) && a.BestFitness == c.BestFitness {
		t.Log("different seeds coincided (possible but unlikely); not failing")
	}
}

func TestHistoryShape(t *testing.T) {
	cfg := Config{PopSize: 16, Generations: 8, MutationRate: 0.3}
	res, err := Run(nil, sphere(0), cfg, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 8 {
		t.Fatalf("history = %d generations, want 8", len(res.History))
	}
	for i, st := range res.History {
		if st.Generation != i {
			t.Fatalf("generation %d labeled %d", i, st.Generation)
		}
		if st.Best < st.Mean || st.Mean < st.Worst {
			t.Fatalf("gen %d: best %g >= mean %g >= worst %g violated", i, st.Best, st.Mean, st.Worst)
		}
		if len(st.BestGenes) != 3 {
			t.Fatalf("gen %d: best genes %v", i, st.BestGenes)
		}
	}
	if res.Evaluations < cfg.PopSize {
		t.Fatalf("evaluations = %d", res.Evaluations)
	}
}

func TestElitismMonotoneBest(t *testing.T) {
	cfg := Config{PopSize: 20, Generations: 15, MutationRate: 0.8}
	res, err := Run(nil, sphere(2), cfg, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(res.History); i++ {
		if res.History[i].Best < res.History[i-1].Best-1e-12 {
			t.Fatalf("best regressed at gen %d: %g -> %g", i, res.History[i-1].Best, res.History[i].Best)
		}
	}
}

func TestSelectionMethodsAllConverge(t *testing.T) {
	for _, m := range []SelectionMethod{Roulette, Tournament, Rank} {
		cfg := Config{PopSize: 40, Generations: 30, MutationRate: 0.4, Selection: m}
		res, err := Run(nil, sphere(0.5), cfg, rand.New(rand.NewSource(5)))
		if err != nil {
			t.Fatalf("%v: %v", m, err)
		}
		if res.BestFitness < 0.8 {
			t.Errorf("%v: best fitness %g", m, res.BestFitness)
		}
	}
}

func TestCrossoverMethods(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	a := []float64{0, 0, 0, 0}
	b := []float64{1, 1, 1, 1}
	child := crossover(a, b, rng)
	if len(child) != 4 {
		t.Fatalf("child len %d", len(child))
	}
	for _, g := range child {
		if g < 0 || g > 1 {
			t.Fatalf("child gene %g outside convex hull", g)
		}
	}
}

func TestMutationRespectsBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	bounds := []Interval{{0, 1}, {10, 20}}
	for trial := 0; trial < 500; trial++ {
		g := []float64{0.5, 15}
		mutate(g, bounds, 0.5, rng)
		for i, b := range bounds {
			if g[i] < b.Lo || g[i] > b.Hi {
				t.Fatalf("gene %d = %g escaped [%g,%g]", i, g[i], b.Lo, b.Hi)
			}
		}
	}
}

func TestZeroFitnessDegeneracy(t *testing.T) {
	// All-zero fitness must not panic or loop: roulette degrades to
	// uniform selection.
	p := Problem{
		Bounds:       []Interval{{0, 1}},
		BatchFitness: batchOf(func([]float64) float64 { return 0 }),
	}
	cfg := Config{PopSize: 10, Generations: 3, MutationRate: 0.5}
	res, err := Run(nil, p, cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness != 0 {
		t.Fatalf("best = %g", res.BestFitness)
	}
}

func TestNegativeAndNaNFitnessSanitized(t *testing.T) {
	calls := 0
	p := Problem{
		Bounds: []Interval{{0, 1}},
		BatchFitness: batchOf(func([]float64) float64 {
			calls++
			if calls%2 == 0 {
				return math.NaN()
			}
			return -5
		}),
	}
	cfg := Config{PopSize: 8, Generations: 2, MutationRate: 0.5}
	res, err := Run(nil, p, cfg, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	if res.BestFitness != 0 {
		t.Fatalf("sanitized best = %g, want 0", res.BestFitness)
	}
}

func TestSelectionPrefersFit(t *testing.T) {
	// With one dominant individual, roulette should pick it most often.
	pop := []individual{
		{genes: []float64{1}, fitness: 100, scored: true},
		{genes: []float64{2}, fitness: 1, scored: true},
		{genes: []float64{3}, fitness: 1, scored: true},
	}
	rng := rand.New(rand.NewSource(6))
	sel := newSelector(pop, Roulette, rng)
	hits := 0
	const trials = 1000
	for i := 0; i < trials; i++ {
		if sel.pick().genes[0] == 1 {
			hits++
		}
	}
	if hits < trials*80/102 {
		t.Fatalf("dominant picked %d/%d times", hits, trials)
	}
}

func TestMethodStrings(t *testing.T) {
	if Roulette.String() != "roulette" || Tournament.String() != "tournament" || Rank.String() != "rank" {
		t.Fatal("selection strings wrong")
	}
	if SelectionMethod(9).String() == "" {
		t.Fatal("unknown enums must still render")
	}
}

// Property: the best genome always lies within bounds.
func TestQuickBestWithinBounds(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		cfg := Config{PopSize: 10, Generations: 4, MutationRate: 0.6}
		res, err := Run(nil, sphere(0), cfg, rng)
		if err != nil {
			return false
		}
		for _, g := range res.Best {
			if g < -5 || g > 5 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}
