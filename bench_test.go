// Benchmark harness: one testing.B benchmark per reproduced figure /
// experiment (ftbench's -e flag lists the experiments, and each opens
// with a header line naming what it reproduces). `go test -bench=.
// -benchmem` regenerates the core quantities; `go run ./cmd/ftbench`
// prints the full tables.
package repro

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/signal"
	"repro/internal/trajectory"
	"repro/internal/transient"
)

func mustSession(b *testing.B) *Session {
	b.Helper()
	s, err := NewSession(PaperCUT())
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// reducedGA keeps per-iteration cost sane while preserving the paper's
// operators; BenchmarkGAPaperParams runs the full configuration.
func reducedGA(seed int64) OptimizeConfig {
	cfg := PaperOptimizeConfig(1)
	cfg.GA.PopSize = 32
	cfg.GA.Generations = 10
	cfg.Seed = seed
	return cfg
}

// BenchmarkFig1Dictionary (E1): building the full fault dictionary grid
// — 56 faulty circuits plus golden across a 13-point frequency sweep.
// Each iteration needs a fresh session (a warm dictionary would serve
// the grid from its memo), but session construction happens with the
// timer stopped so only BuildGrid is measured.
func BenchmarkFig1Dictionary(b *testing.B) {
	grid := numeric.Logspace(0.01, 100, 13)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := mustSession(b)
		b.StartTimer()
		if err := s.Dictionary().BuildGrid(nil, grid, 4); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig2Transform (E2): the curve-to-point transformation for one
// fault at a two-frequency test vector.
func BenchmarkFig2Transform(b *testing.B) {
	s := mustSession(b)
	d := s.Dictionary()
	f := Fault{Component: "R3", Deviation: 0.4}
	omegas := []float64{0.5, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := d.Signature(f, omegas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3Diagnosis (E3): one perpendicular-projection diagnosis of
// an off-grid fault against the 7-trajectory map.
func BenchmarkFig3Diagnosis(b *testing.B) {
	s := mustSession(b)
	dg, err := s.Diagnoser(context.Background(), []float64{0.5635, 4.5524})
	if err != nil {
		b.Fatal(err)
	}
	unknown := Fault{Component: "R3", Deviation: 0.25}
	sig, err := s.Dictionary().Signature(unknown, dg.Map().Omegas)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dg.Diagnose(sig)
		if err != nil {
			b.Fatal(err)
		}
		if res.Best().Component != "R3" {
			b.Fatalf("diagnosed %s", res.Best().Component)
		}
	}
}

// BenchmarkGAPaperParams (E4): the paper's full GA — 128 individuals,
// 15 generations, roulette wheel, fitness 1/(1+I).
func BenchmarkGAPaperParams(b *testing.B) {
	s := mustSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cfg := PaperOptimizeConfig(1)
		cfg.Seed = int64(i + 1)
		tv, err := s.Optimize(context.Background(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if tv.Fitness <= 0 {
			b.Fatal("GA found nothing")
		}
	}
}

// BenchmarkE5Accuracy: the hold-out evaluation (42 off-grid faults) for
// a fixed test vector — the cost of the accuracy numbers in E5's table.
func BenchmarkE5Accuracy(b *testing.B) {
	s := mustSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ev, err := s.Evaluate(context.Background(), []float64{0.5635, 4.5524}, nil)
		if err != nil {
			b.Fatal(err)
		}
		if ev.Accuracy() < 0.9 {
			b.Fatalf("accuracy %g", ev.Accuracy())
		}
	}
}

// BenchmarkE5Baselines: the three baseline strategies at matched budget.
func BenchmarkE5Baselines(b *testing.B) {
	s := mustSession(b)
	atpg := s.ATPG()
	b.Run("random", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rng := rand.New(rand.NewSource(int64(i)))
			if _, err := atpg.RandomVector(nil, 2, 0.01, 100, 50, rng); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("grid", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := atpg.GridVector(nil, 2, 0.01, 100, 12); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("sensitivity", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := atpg.SensitivityVector(nil, 2, 0.01, 100, 12, 0.3); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkE6Frequencies: GA optimization per test-vector size k.
func BenchmarkE6Frequencies(b *testing.B) {
	s := mustSession(b)
	for k := 1; k <= 4; k++ {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := reducedGA(int64(i + 1))
				cfg.NumFrequencies = k
				if _, err := s.Optimize(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkE7GA: GA operator ablation (selection methods).
func BenchmarkE7GA(b *testing.B) {
	s := mustSession(b)
	for _, sel := range []struct {
		name string
		set  func(*OptimizeConfig)
	}{
		{"roulette", func(c *OptimizeConfig) { c.GA.Selection = 0 }},
		{"tournament", func(c *OptimizeConfig) { c.GA.Selection = 1 }},
		{"rank", func(c *OptimizeConfig) { c.GA.Selection = 2 }},
	} {
		b.Run(sel.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := reducedGA(int64(i + 1))
				sel.set(&cfg)
				if _, err := s.Optimize(context.Background(), cfg); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFitnessEval: one steady-state GA fitness evaluation — a
// trajectory.Builder rebuild plus the cached intersection count, the
// unit of work Optimize performs PopSize×Generations times. This is the
// path the reuse APIs (engine.BatchResponsesInto,
// dictionary.SignaturesInto, trajectory.Builder) keep allocation-free;
// TestFitnessPathAllocationFree guards the allocs/op reported here.
func BenchmarkFitnessEval(b *testing.B) {
	s := mustSession(b)
	bu := trajectory.NewBuilder(s.Dictionary())
	omegas := []float64{0.5, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary frequencies to defeat any value-keyed caching, as the GA
		// does.
		omegas[0] = 0.5 + float64(i%100)*1e-5
		omegas[1] = 2 + float64(i%100)*1e-5
		m, err := bu.Build(nil, omegas)
		if err != nil {
			b.Fatal(err)
		}
		if m.Intersections() < 0 {
			b.Fatal("negative intersection count")
		}
	}
}

// BenchmarkE8Noise: one full simulated bench measurement (multitone
// synthesis, noise, 12-bit ADC, two Goertzel extractions).
func BenchmarkE8Noise(b *testing.B) {
	gains := []complex128{complex(0.4, 0.1), complex(0.05, -0.02)}
	cfg := signal.DefaultMeasureConfig()
	omegas, err := signal.CoherentOmegas([]float64{0.56, 4.55}, cfg.SampleRate, cfg.Samples)
	if err != nil {
		b.Fatal(err)
	}
	cfg.SNRdB = 40
	cfg.ADCBits = 12
	rng := rand.New(rand.NewSource(1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := signal.MeasureTones(gains, omegas, cfg, rng); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE9Circuits: the whole pipeline (dictionary + reduced GA +
// hold-out evaluation) per benchmark CUT.
func BenchmarkE9Circuits(b *testing.B) {
	for _, cut := range Benchmarks() {
		b.Run(cut.Circuit.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				s, err := NewSession(cut)
				if err != nil {
					b.Fatal(err)
				}
				b.StartTimer()
				cfg := reducedGA(int64(i + 1))
				cfg.BandLo, cfg.BandHi = cut.Omega0/100, cut.Omega0*100
				tv, err := s.Optimize(context.Background(), cfg)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := s.Evaluate(context.Background(), tv.Omegas, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBatchVsScalar: the batched engine against the seed's
// per-point solver on the same workload — the full paper universe (56
// faults + golden) across a 13-point grid. "scalar" clones, assembles
// and LU-factors one system per (fault, ω) pair (analyzer assembly
// amortized, as the seed's BuildGrid did); "batch" is Dictionary.BuildGrid
// on a fresh dictionary: one golden factorization per frequency plus
// rank-1 Sherman–Morrison updates per fault.
func BenchmarkBatchVsScalar(b *testing.B) {
	grid := numeric.Logspace(0.01, 100, 13)
	b.Run("scalar", func(b *testing.B) {
		d := mustSession(b).Dictionary()
		faults := append([]Fault{{}}, d.Universe().Faults()...)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, f := range faults {
				for _, w := range grid {
					if _, err := d.ScalarResponse(f, w); err != nil {
						b.Fatal(err)
					}
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			// Fresh session per iteration so BuildGrid computes instead
			// of hitting the memo; construction (including template
			// compilation) happens off the clock so the two sides time
			// the same work: filling the (fault × frequency) table.
			b.StopTimer()
			s := mustSession(b)
			b.StartTimer()
			if err := s.Dictionary().BuildGrid(nil, grid, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkACSolve: the innermost substrate cost — one MNA factor+solve
// of the paper CUT at one frequency.
func BenchmarkACSolve(b *testing.B) {
	d := mustSession(b).Dictionary()
	trials := diagnosis.HoldOutTrials(d.Universe(), []float64{0.17}) // unmemoized deviations
	_ = trials
	faults := d.Universe().Faults()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary ω so memoization never hits: measures true solve cost.
		w := 0.5 + float64(i%1000)*1e-6
		if _, err := d.Response(faults[i%len(faults)], w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTrajectoryBuild: building the 7-component trajectory map for
// a fresh test vector (the GA's per-candidate cost).
func BenchmarkTrajectoryBuild(b *testing.B) {
	s := mustSession(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Vary frequencies to defeat memoization, as the GA does.
		w1 := 0.5 + float64(i%100)*1e-5
		w2 := 2.0 + float64(i%100)*1e-5
		if _, err := s.Trajectories(context.Background(), []float64{w1, w2}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFaultUniverse: enumerating the paper's 56-fault universe.
func BenchmarkFaultUniverse(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		u, err := fault.PaperUniverse(PaperCUT().Passives)
		if err != nil {
			b.Fatal(err)
		}
		if len(u.Faults()) != 56 {
			b.Fatal("universe size")
		}
	}
}

// BenchmarkE10Reject: one out-of-model rejection decision (diagnosis of
// a double-fault point plus the threshold test).
func BenchmarkE10Reject(b *testing.B) {
	s := mustSession(b)
	omegas := []float64{0.5, 2}
	dg, err := s.Diagnoser(context.Background(), omegas)
	if err != nil {
		b.Fatal(err)
	}
	m, err := fault.NewMulti(
		Fault{Component: "R1", Deviation: 0.4},
		Fault{Component: "C3", Deviation: -0.4},
	)
	if err != nil {
		b.Fatal(err)
	}
	double, err := m.Apply(s.Dictionary().Golden())
	if err != nil {
		b.Fatal(err)
	}
	sig, err := s.Dictionary().CircuitSignature(double, omegas)
	if err != nil {
		b.Fatal(err)
	}
	ext := dg.Extent()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := dg.Diagnose(sig)
		if err != nil {
			b.Fatal(err)
		}
		_ = res.Rejected(ext, 0.02)
	}
}

// BenchmarkE11Tolerance: one tolerance-perturbed board build + variant
// signature + diagnosis.
func BenchmarkE11Tolerance(b *testing.B) {
	s := mustSession(b)
	omegas := []float64{0.5, 2}
	if _, err := s.Diagnoser(context.Background(), omegas); err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	tol := Tolerance{Sigma: 0.01}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		board, err := tol.Perturb(s.Dictionary().Golden(), rng, "C2")
		if err != nil {
			b.Fatal(err)
		}
		if err := board.ScaleValue("C2", 1.25); err != nil {
			b.Fatal(err)
		}
		if _, _, err := s.DiagnoseCircuit(context.Background(), board, omegas, 0.05); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkE12Active: full pipeline over the macromodel CUT with 11
// fault targets (reduced GA).
func BenchmarkE12Active(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		cut, err := PaperCUTMacro()
		if err != nil {
			b.Fatal(err)
		}
		s, err := NewSession(cut)
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		cfg := reducedGA(int64(i + 1))
		if _, err := s.Optimize(context.Background(), cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTransientStep: cost of one simulated second of the paper CUT
// at 1 ms steps (the time-domain measurement path).
func BenchmarkTransientStep(b *testing.B) {
	cut := PaperCUT()
	wave := transient.Sine(1, 1, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := transient.Run(cut.Circuit.Clone(), transient.Config{
			Step:     1e-3,
			Duration: 1,
			Sources:  map[string]transient.Waveform{cut.Source: wave},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFitRational: recovering the CUT's third-order transfer
// function from 21 AC samples.
func BenchmarkFitRational(b *testing.B) {
	s := mustSession(b)
	omegas := numeric.Logspace(0.02, 50, 21)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FitTransfer(0, 3, omegas); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMultiFaultBatchVsClones: the rank-k batched engine against
// per-pair full-LU clones on the paper CUT's double-fault universe
// (every component pair × paper deviations, 1344 pairs) across a
// 9-point grid. "clones" applies each pair to a circuit clone and fully
// solves per (pair, ω); "batch" is one BatchResponsesSetsInto pass —
// per frequency one golden LU, shared z-solves, and a 2×2 Woodbury
// capacitance solve per pair. `ftbench -e multifault` records the same
// comparison (cross-checked to 1e-9) into BENCH_multifault.json.
func BenchmarkMultiFaultBatchVsClones(b *testing.B) {
	s, err := NewSession(PaperCUT())
	if err != nil {
		b.Fatal(err)
	}
	pairs, err := s.Universe().Pairs(nil, 0)
	if err != nil {
		b.Fatal(err)
	}
	sets := make([]FaultSet, len(pairs))
	for i, p := range pairs {
		sets[i] = p
	}
	grid := numeric.Logspace(0.01, 100, 9)
	b.Run("clones", func(b *testing.B) {
		golden := s.Dictionary().Golden()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, p := range pairs {
				faulty, err := p.Apply(golden)
				if err != nil {
					b.Fatal(err)
				}
				sig, err := s.Dictionary().CircuitSignature(faulty, grid)
				if err != nil {
					b.Fatal(err)
				}
				if len(sig) != len(grid) {
					b.Fatal("short signature")
				}
			}
		}
	})
	b.Run("batch", func(b *testing.B) {
		var scratch dictionary.SignatureScratch
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Dictionary().SignaturesSetsInto(nil, sets, grid, &scratch); err != nil {
				b.Fatal(err)
			}
		}
	})
}
