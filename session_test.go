package repro

import (
	"context"
	"errors"
	"sync"
	"testing"
)

func testSession(t *testing.T) *Session {
	t.Helper()
	s, err := NewSession(PaperCUT())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func smallCfg(seed int64) OptimizeConfig {
	cfg := PaperOptimizeConfig(1)
	cfg.GA.PopSize = 24
	cfg.GA.Generations = 6
	cfg.Seed = seed
	return cfg
}

func TestSessionOptionValidation(t *testing.T) {
	if _, err := NewSession(PaperCUT(), WithWorkers(-1)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("negative workers: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewSession(PaperCUT(), WithDeviations()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty deviations: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewSession(PaperCUT(), WithComponents()); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("empty components: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewSession(PaperCUT(), WithComponents("R99")); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("unknown component: err = %v, want ErrUnknownComponent", err)
	}
	if _, err := NewSession(PaperCUT(), WithTolerance(Tolerance{}, 20)); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("zero sigma without noise: err = %v, want ErrBadConfig", err)
	}
	if _, err := NewSession(PaperCUT(), WithTolerance(Tolerance{}, 20), WithMeasurementNoise(300, 1e4)); err != nil {
		t.Fatalf("zero sigma with noise: %v", err)
	}
}

// TestOptimizeCanceledReturnsErrCanceled is the acceptance criterion:
// a canceled context returns ErrCanceled (and errors.Is(err,
// context.Canceled)) from Session.Optimize within one GA generation.
func TestOptimizeCanceledReturnsErrCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Cancel from the progress stream after the first generation: the
	// run must stop within one more generation.
	gens := 0
	s, err := NewSession(PaperCUT(), WithProgress(func(p Progress) {
		if p.Stage == StageOptimize {
			gens++
			if gens == 1 {
				cancel()
			}
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	cfg := smallCfg(1)
	cfg.GA.Generations = 50
	_, err = s.Optimize(ctx, cfg)
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled in the chain", err)
	}
	if gens > 2 {
		t.Fatalf("ran %d generations after cancellation, want <= 2", gens)
	}
}

// TestEvaluateCanceledReturnsErrCanceled: same criterion for Evaluate
// (cancellation within one frequency batch).
func TestEvaluateCanceledReturnsErrCanceled(t *testing.T) {
	s := testSession(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := s.Evaluate(ctx, []float64{0.56, 4.55}, nil)
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled wrapping context.Canceled", err)
	}
	if _, err := s.Trajectories(ctx, []float64{0.56, 4.55}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Trajectories err = %v, want ErrCanceled", err)
	}
	if err := s.Precompute(ctx, []float64{0.5, 1, 2}); !errors.Is(err, ErrCanceled) {
		t.Fatalf("Precompute err = %v, want ErrCanceled", err)
	}
}

// TestSessionDiagnoserAndEvaluate: the diagnosis stage a session builds
// for a test vector spans that vector, and the hold-out evaluation runs
// every component at every hold-out deviation against it.
func TestSessionDiagnoserAndEvaluate(t *testing.T) {
	s := testSession(t)
	ctx := context.Background()
	omegas := []float64{0.5, 2}
	dg, err := s.Diagnoser(ctx, omegas)
	if err != nil {
		t.Fatal(err)
	}
	if dg.Map().Dim() != 2 {
		t.Fatal("wrong dimension")
	}
	ev, err := s.Evaluate(ctx, omegas, []float64{-0.25, 0.25})
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

func TestProgressStreamShape(t *testing.T) {
	var events []Progress
	s, err := NewSession(PaperCUT(), WithProgress(func(p Progress) { events = append(events, p) }))
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	cfg := smallCfg(1)
	tv, err := s.Optimize(ctx, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Evaluate(ctx, tv.Omegas, nil); err != nil {
		t.Fatal(err)
	}

	var optimize, evaluate, dict int
	lastBest := -1.0
	for _, ev := range events {
		switch ev.Stage {
		case StageOptimize:
			optimize++
			if ev.Total != cfg.GA.Generations {
				t.Fatalf("optimize total = %d, want %d", ev.Total, cfg.GA.Generations)
			}
			// With elitism the per-generation best never regresses.
			if ev.BestFitness < lastBest {
				t.Fatalf("best fitness regressed: %g -> %g", lastBest, ev.BestFitness)
			}
			lastBest = ev.BestFitness
		case StageEvaluate:
			evaluate++
		case StageDictionary:
			dict++
		}
	}
	if optimize != cfg.GA.Generations {
		t.Fatalf("optimize events = %d, want %d", optimize, cfg.GA.Generations)
	}
	if evaluate != 2 {
		t.Fatalf("evaluate events = %d, want begin+end", evaluate)
	}
	if dict != 2 {
		t.Fatalf("dictionary events = %d, want begin+end from NewSession", dict)
	}
}

func TestProgressChannelNeverBlocks(t *testing.T) {
	ch := make(chan Progress, 1) // deliberately undersized
	s, err := NewSession(PaperCUT(), WithProgressChannel(ch))
	if err != nil {
		t.Fatal(err)
	}
	// No consumer: Optimize must still complete (events are dropped).
	if _, err := s.Optimize(context.Background(), smallCfg(1)); err != nil {
		t.Fatal(err)
	}
	if len(ch) == 0 {
		t.Fatal("channel received no events at all")
	}
}

func TestPrecomputeStreamsPerFrequencyProgress(t *testing.T) {
	// Precompute may invoke the callback from several workers at once
	// (see WithProgress), so the collector must be safe for that.
	var mu sync.Mutex
	var events []Progress
	s, err := NewSession(PaperCUT(), WithProgress(func(p Progress) {
		mu.Lock()
		events = append(events, p)
		mu.Unlock()
	}))
	if err != nil {
		t.Fatal(err)
	}
	events = events[:0] // drop the NewSession begin/end markers
	grid := []float64{0.1, 0.5, 1, 5, 10}
	if err := s.Precompute(context.Background(), grid); err != nil {
		t.Fatal(err)
	}
	if len(events) != len(grid) {
		t.Fatalf("events = %d, want one per frequency (%d)", len(events), len(grid))
	}
	for _, ev := range events {
		if ev.Stage != StageDictionary || ev.Total != len(grid) {
			t.Fatalf("bad event %+v", ev)
		}
	}
}

func TestSessionWorkersApplyToGA(t *testing.T) {
	// WithWorkers must not change results, only parallelism.
	ctx := context.Background()
	s1, err := NewSession(PaperCUT(), WithWorkers(1))
	if err != nil {
		t.Fatal(err)
	}
	s4, err := NewSession(PaperCUT(), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	tv1, err := s1.Optimize(ctx, smallCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	tv4, err := s4.Optimize(ctx, smallCfg(9))
	if err != nil {
		t.Fatal(err)
	}
	if tv1.Fitness != tv4.Fitness || tv1.Omegas[0] != tv4.Omegas[0] {
		t.Fatalf("worker count changed results: %v vs %v", tv1, tv4)
	}
}

func TestStructuredErrorsSurface(t *testing.T) {
	s := testSession(t)
	ctx := context.Background()
	bad := smallCfg(1)
	bad.NumFrequencies = 0
	if _, err := s.Optimize(ctx, bad); !errors.Is(err, ErrBadConfig) {
		t.Fatalf("bad config: err = %v, want ErrBadConfig", err)
	}
	dg, err := s.Diagnoser(ctx, []float64{0.56, 4.55})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dg.DiagnoseSet(s.Dictionary(), Fault{Component: "R99", Deviation: 0.2}); !errors.Is(err, ErrUnknownComponent) {
		t.Fatalf("unknown component: err = %v, want ErrUnknownComponent", err)
	}
	// A DC test frequency is a caller's configuration error (400), not a
	// server fault: trajectories need ω > 0.
	_, err = s.Trajectories(ctx, []float64{0, 4.55})
	if !errors.Is(err, ErrBadConfig) || HTTPStatus(err) != 400 {
		t.Fatalf("DC test frequency: err = %v (HTTP %d), want ErrBadConfig and 400", err, HTTPStatus(err))
	}
}

func TestWithComponentsReflectedInCUT(t *testing.T) {
	s, err := NewSession(PaperCUT(), WithComponents("R3", "C2"))
	if err != nil {
		t.Fatal(err)
	}
	got := s.CUT().Passives
	if len(got) != 2 || got[0] != "R3" || got[1] != "C2" {
		t.Fatalf("CUT().Passives = %v, want the restricted targets", got)
	}
	// The netlist entry point restricts targets the same way.
	nl := "t\nV1 in 0 1\nR1 in out 1k\nC1 out 0 1u\n"
	fromNetlist, err := NewSessionFromNetlist(nl, "V1", "out", WithComponents("R1"))
	if err != nil {
		t.Fatal(err)
	}
	if got := fromNetlist.CUT().Passives; len(got) != 1 || got[0] != "R1" {
		t.Fatalf("netlist CUT().Passives = %v, want [R1]", got)
	}
}

func TestChecksumCoversMeasurementSetup(t *testing.T) {
	base := testSession(t)
	sameAgain := testSession(t)
	if base.Checksum() != sameAgain.Checksum() {
		t.Fatal("identical sessions disagree on checksum")
	}
	devs, err := NewSession(PaperCUT(), WithDeviations(-0.2, 0.2))
	if err != nil {
		t.Fatal(err)
	}
	if devs.Checksum() == base.Checksum() {
		t.Fatal("different deviation grids share a checksum")
	}
	comps, err := NewSession(PaperCUT(), WithComponents("R3"))
	if err != nil {
		t.Fatal(err)
	}
	if comps.Checksum() == base.Checksum() {
		t.Fatal("different fault universes share a checksum")
	}
	// Same netlist, different observed node → different artifacts.
	nl := "t\nV1 in 0 1\nR1 in mid 1k\nR2 mid out 1k\nC1 out 0 1u\n"
	atOut, err := NewSessionFromNetlist(nl, "V1", "out")
	if err != nil {
		t.Fatal(err)
	}
	atMid, err := NewSessionFromNetlist(nl, "V1", "mid")
	if err != nil {
		t.Fatal(err)
	}
	if atOut.Checksum() == atMid.Checksum() {
		t.Fatal("different output nodes share a checksum")
	}
}
