package core

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/ga"
)

func paperATPG(t *testing.T) *ATPG {
	t.Helper()
	cut := circuits.NFLowpass7()
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	a, err := New(cut.Circuit, cut.Source, cut.Output, u)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

// smallGA returns a reduced GA config that keeps unit tests fast while
// preserving the paper's operator choices.
func smallGA() ga.Config {
	cfg := ga.PaperConfig()
	cfg.PopSize = 24
	cfg.Generations = 6
	return cfg
}

func TestConfigValidate(t *testing.T) {
	good := PaperOptimizeConfig(1)
	if err := good.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := good
	bad.NumFrequencies = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("k=0 accepted")
	}
	bad = good
	bad.BandLo = -1
	if err := bad.Validate(); err == nil {
		t.Fatal("negative band accepted")
	}
	bad = good
	bad.BandHi = bad.BandLo
	if err := bad.Validate(); err == nil {
		t.Fatal("empty band accepted")
	}
	bad = good
	bad.GA.PopSize = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("bad GA config accepted")
	}
}

func TestPaperOptimizeConfig(t *testing.T) {
	cfg := PaperOptimizeConfig(10)
	if cfg.NumFrequencies != 2 || cfg.BandLo != 0.1 || cfg.BandHi != 1000 {
		t.Fatalf("config = %+v", cfg)
	}
	if cfg.GA.PopSize != 128 || cfg.GA.Generations != 15 {
		t.Fatal("GA config not the paper's")
	}
}

func TestFitnessExplicitVector(t *testing.T) {
	a := paperATPG(t)
	fit, err := a.Fitness(nil, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if fit <= 0 || fit > 1 {
		t.Fatalf("paper fitness = %g outside (0,1]", fit)
	}
	if _, err := a.Fitness(nil, nil); err == nil {
		t.Fatal("empty vector accepted")
	}
}

func TestOptimizeFindsGoodVector(t *testing.T) {
	a := paperATPG(t)
	cfg := PaperOptimizeConfig(1)
	cfg.GA = smallGA()
	tv, err := a.Optimize(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Omegas) != 2 {
		t.Fatalf("omegas = %v", tv.Omegas)
	}
	if tv.Omegas[0] > tv.Omegas[1] {
		t.Fatalf("omegas not sorted: %v", tv.Omegas)
	}
	for _, w := range tv.Omegas {
		if w < cfg.BandLo || w > cfg.BandHi {
			t.Fatalf("ω=%g outside band", w)
		}
	}
	// The GA should find a low-intersection vector on this CUT.
	if tv.Fitness < 0.25 {
		t.Fatalf("fitness = %g (I = %d)", tv.Fitness, tv.Intersections)
	}
	if len(tv.History) != cfg.GA.Generations {
		t.Fatalf("history = %d", len(tv.History))
	}
	if tv.Evaluations <= 0 {
		t.Fatal("no evaluations recorded")
	}
	// Fitness agrees with a direct recomputation.
	direct, err := a.Fitness(nil, tv.Omegas)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(direct-1/(1+float64(tv.Intersections))) > 1e-12 {
		t.Fatalf("fitness %g inconsistent with I=%d", direct, tv.Intersections)
	}
}

func TestOptimizeDeterministic(t *testing.T) {
	a := paperATPG(t)
	cfg := PaperOptimizeConfig(1)
	cfg.GA = smallGA()
	tv1, err := a.Optimize(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	tv2, err := a.Optimize(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i := range tv1.Omegas {
		if tv1.Omegas[i] != tv2.Omegas[i] {
			t.Fatalf("same seed, different vectors: %v vs %v", tv1.Omegas, tv2.Omegas)
		}
	}
}

func TestOptimizeRejectsBadConfig(t *testing.T) {
	a := paperATPG(t)
	cfg := PaperOptimizeConfig(1)
	cfg.NumFrequencies = 0
	if _, err := a.Optimize(nil, cfg); err == nil {
		t.Fatal("bad config accepted")
	}
}

func TestBuildDiagnoserAndEvaluate(t *testing.T) {
	a := paperATPG(t)
	dg, err := a.BuildDiagnoser(nil, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if dg.Map().Dim() != 2 {
		t.Fatal("wrong dimension")
	}
	ev, err := a.EvaluateVector(nil, []float64{0.5, 2}, []float64{-0.25, 0.25})
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total != 14 {
		t.Fatalf("trials = %d, want 14", ev.Total)
	}
	if ev.Accuracy() <= 0.3 {
		t.Fatalf("accuracy = %g", ev.Accuracy())
	}
}

func TestRandomVectorBaseline(t *testing.T) {
	a := paperATPG(t)
	rng := rand.New(rand.NewSource(5))
	tv, err := a.RandomVector(nil, 2, 0.01, 100, 30, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Omegas) != 2 || tv.Evaluations != 30 {
		t.Fatalf("baseline = %+v", tv)
	}
	if tv.Fitness <= 0 {
		t.Fatalf("fitness = %g", tv.Fitness)
	}
	// Input validation.
	if _, err := a.RandomVector(nil, 0, 0.01, 100, 5, rng); err == nil {
		t.Fatal("k=0 accepted")
	}
	if _, err := a.RandomVector(nil, 2, -1, 100, 5, rng); err == nil {
		t.Fatal("bad band accepted")
	}
	if _, err := a.RandomVector(nil, 2, 0.01, 100, 5, nil); err == nil {
		t.Fatal("nil rng accepted")
	}
}

func TestGridVectorBaseline(t *testing.T) {
	a := paperATPG(t)
	tv, err := a.GridVector(nil, 2, 0.01, 100, 8)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Omegas) != 2 {
		t.Fatalf("omegas = %v", tv.Omegas)
	}
	// C(8,2) = 28 solvable combos at most.
	if tv.Evaluations < 1 || tv.Evaluations > 28 {
		t.Fatalf("evaluations = %d", tv.Evaluations)
	}
	if _, err := a.GridVector(nil, 3, 0.01, 100, 2); err == nil {
		t.Fatal("grid smaller than k accepted")
	}
	if _, err := a.GridVector(nil, 2, 5, 1, 8); err == nil {
		t.Fatal("inverted band accepted")
	}
}

func TestSensitivityVectorBaseline(t *testing.T) {
	a := paperATPG(t)
	tv, err := a.SensitivityVector(nil, 2, 0.01, 100, 12, 0.3)
	if err != nil {
		t.Fatal(err)
	}
	if len(tv.Omegas) != 2 {
		t.Fatalf("omegas = %v", tv.Omegas)
	}
	if math.Abs(math.Log10(tv.Omegas[1])-math.Log10(tv.Omegas[0])) < 0.3 {
		t.Fatalf("picks too close: %v", tv.Omegas)
	}
	if _, err := a.SensitivityVector(nil, 0, 0.01, 100, 12, 0.3); err == nil {
		t.Fatal("k=0 accepted")
	}
	// Impossible separation demand.
	if _, err := a.SensitivityVector(nil, 5, 1, 2, 6, 2.0); err == nil {
		t.Fatal("unsatisfiable separation accepted")
	}
}

func TestGAVectorBeatsOrMatchesRandomOnFitness(t *testing.T) {
	a := paperATPG(t)
	cfg := PaperOptimizeConfig(1)
	cfg.GA = smallGA()
	tv, err := a.Optimize(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	rnd, err := a.RandomVector(nil, 2, cfg.BandLo, cfg.BandHi, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	if tv.Fitness < rnd.Fitness-1e-9 {
		t.Fatalf("GA fitness %g below a 10-draw random baseline %g", tv.Fitness, rnd.Fitness)
	}
}
