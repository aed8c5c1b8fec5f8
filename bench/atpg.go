package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro"
	"repro/internal/dictionary"
	"repro/internal/engine"
	"repro/internal/ga"
	"repro/internal/trajectory"
)

// runATPG is the paper's own job: one op is Session.Optimize with the
// paper's 128×15 GA (k = 2, GA.Workers = GOMAXPROCS) on nf-lowpass-7,
// closed loop, one caller, GA seeds seed·10⁶ + i on one session. Before
// every op a fresh NewSession is timed as the set-up sample and dropped,
// so set-up samples spread over the run like the ops. The load falls on
// the GA, trajectory building, the intersection count and a tiny dense
// engine.
func runATPG(ctx context.Context, o options, sz sizes) (*result, error) {
	r := newResult("atpg-paper")
	cut := repro.PaperCUT()
	s, err := repro.NewSession(cut)
	if err != nil {
		return nil, err
	}
	cfg := repro.PaperOptimizeConfig(cut.Omega0)
	cfg.GA.Workers = o.workers
	base := o.seed * 1_000_000
	// Two untimed runs let the engine pool and the builders warm up.
	for i := int64(1); i <= 2; i++ {
		cfg.Seed = base - i
		if _, err := s.Optimize(ctx, cfg); err != nil {
			return nil, err
		}
	}
	if o.trace {
		return traceATPG(ctx, o, sz, r, s, cfg, base)
	}
	runs, setups, ops, err := optimizeLoop(ctx, r, cut, s, cfg, base, o.seconds, sz.gaRuns)
	if err != nil {
		return nil, err
	}
	checkATPG(ctx, r, s, cfg, runs, sz.gaChecks, o.seed)
	if err := closedLoopMetrics(r, setups, ops); err != nil {
		return nil, err
	}
	return r, nil
}

// gaRun is one timed Session.Optimize call.
type gaRun struct {
	seed   int64
	tv     *repro.TestVector
	t      opTime
	allocs uint64
}

// optimizeLoop runs GA ops on seeds base, base+1, … until the budget or
// the cap is reached, each after a timed set-up of a fresh session on
// cut. It returns the runs that succeeded, the set-up times and the
// times of every op, failed ones included.
func optimizeLoop(ctx context.Context, r *result, cut repro.CUT, s *repro.Session, cfg repro.OptimizeConfig, base int64, budget time.Duration, cap int) (runs []gaRun, setups, ops []opTime, err error) {
	start := time.Now()
	for i := 0; until(start, budget, i, cap); i++ {
		stop := startOp()
		_, err := repro.NewSession(cut)
		setups = append(setups, stop())
		if err != nil {
			return nil, nil, nil, err
		}
		run, ok := optimizeOnce(ctx, r, s, cfg, base+int64(i))
		ops = append(ops, run.t)
		if ok {
			runs = append(runs, run)
		}
	}
	return runs, setups, ops, nil
}

// optimizeOnce times one Session.Optimize call; a failed call is timed
// and counted as failed.
func optimizeOnce(ctx context.Context, r *result, s *repro.Session, cfg repro.OptimizeConfig, seed int64) (gaRun, bool) {
	cfg.Seed = seed
	a0, _ := heapAllocs()
	stop := startOp()
	tv, err := s.Optimize(ctx, cfg)
	t := stop()
	a1, _ := heapAllocs()
	r.Attempted++
	run := gaRun{seed: seed, tv: tv, t: t, allocs: a1 - a0}
	if err != nil {
		r.failOp("seed %d: %v", seed, err)
		return run, false
	}
	return run, true
}

// checkATPG checks every run's fitness against its intersection count
// (the paper's 1/(1+I)) and re-runs a few sampled seeds on one worker:
// the GA is deterministic at any worker count, so the test vector and
// fitness must be bit-identical.
func checkATPG(ctx context.Context, r *result, s *repro.Session, cfg repro.OptimizeConfig, runs []gaRun, samples int, seed int64) {
	for _, run := range runs {
		if want := 1 / (1 + float64(run.tv.Intersections)); run.tv.Fitness != want {
			r.fail("seed %d: fitness %v, 1/(1+%d) = %v", run.seed, run.tv.Fitness, run.tv.Intersections, want)
		}
	}
	rng := rand.New(rand.NewSource(seed))
	cfg.GA.Workers = 1
	for k := 0; k < samples && len(runs) > 0; k++ {
		run := runs[rng.Intn(len(runs))]
		cfg.Seed = run.seed
		tv, err := s.Optimize(ctx, cfg)
		if err != nil {
			r.fail("seed %d at 1 worker: %v", run.seed, err)
			continue
		}
		if !equalFloats(tv.Omegas, run.tv.Omegas) || tv.Fitness != run.tv.Fitness || tv.Intersections != run.tv.Intersections {
			r.fail("seed %d: 1 worker gives ω=%v fitness %v, %d workers ω=%v fitness %v",
				run.seed, tv.Omegas, tv.Fitness, cfg.GA.Workers, run.tv.Omegas, run.tv.Fitness)
		}
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// traceATPG is the traced run. Each seed runs twice in a row: untraced
// through Session.Optimize, then traced, driving ga.Run directly with a
// BatchFitness built from the same public calls Session.Optimize makes,
// one span per call. The pair gives the tracing overhead with the host's
// drift cancelled, and the traced run must reproduce the untraced best
// genes and fitness bit for bit.
func traceATPG(ctx context.Context, o options, sz sizes, r *result, s *repro.Session, cfg repro.OptimizeConfig, base int64) (*result, error) {
	t := newTracer(20000)
	d := s.Dictionary()
	eng := d.Engine()
	faults := d.Universe().Faults()
	var scratch dictionary.SignatureScratch
	var batch engine.Batch
	var runs []gaRun
	var untraced, traced []opTime
	var evals, zero int
	var dense, rank1 int64
	start := time.Now()
	for i := 0; until(start, o.seconds, i, sz.gaRuns); i++ {
		run, ok := optimizeOnce(ctx, r, s, cfg, base+int64(i))
		if !ok {
			continue
		}
		runs = append(runs, run)
		cfg.Seed = run.seed
		tr := t.newTrace(true)
		stop := startOp()
		root := tr.start(0, "op")
		st0 := eng.Stats()
		op, err := tracedOptimize(ctx, tr, root.id, d, cfg, o.workers)
		st1 := eng.Stats()
		tr.end(root)
		tracedOp := stop()
		tr.finish()
		r.Attempted++
		if err != nil {
			r.failOp("seed %d traced: %v", run.seed, err)
			continue
		}
		untraced, traced = append(untraced, run.t), append(traced, tracedOp)
		evals += op.evals
		zero += op.zero
		delta := statsDelta(st0, st1)
		dense += delta.DenseFactors
		rank1 += delta.Rank1Solves
		if !equalFloats(op.omegas, run.tv.Omegas) || op.fitness != run.tv.Fitness {
			r.fail("seed %d: traced GA gives ω=%v fitness %v, Session.Optimize ω=%v fitness %v",
				run.seed, op.omegas, op.fitness, run.tv.Omegas, run.tv.Fitness)
		}
		// Replay every 16th evaluation's test vector through the two
		// calls under Builder.Build, outside the op. An unsolvable
		// candidate fails its replay the same way it failed its
		// evaluation; that is part of the workload, not an error.
		probe := t.newTrace(false)
		proot := probe.start(0, "probe")
		for _, om := range op.probes {
			sp := probe.start(proot.id, "dictionary.signatures")
			_, _ = d.UniverseSignaturesInto(ctx, om, &scratch)
			probe.end(sp)
			sp = probe.start(proot.id, "engine.batch")
			_ = eng.BatchResponsesInto(ctx, faults, om, 1, &batch)
			probe.end(sp)
		}
		probe.end(proot)
		probe.finish()
	}
	checkATPG(ctx, r, s, cfg, runs, sz.gaChecks, o.seed)
	var allocs, baseEvals uint64
	for _, run := range runs {
		allocs += run.allocs
		baseEvals += uint64(run.tv.Evaluations)
	}
	if evals == 0 {
		return nil, fmt.Errorf("no traced GA run completed")
	}
	values := map[string]float64{
		"ga.evals":                      float64(evals) / float64(len(traced)),
		"ga.zero_fitness_share":         float64(zero) / float64(evals),
		"ga.self_ms":                    t.selfMsPerOp("ga.run"),
		"trajectory.build_us":           t.meanUs("trajectory.build"),
		"geometry.intersections_us":     t.meanUs("geometry.intersections"),
		"dictionary.signatures_us":      t.meanUs("dictionary.signatures"),
		"engine.batch_us":               t.meanUs("engine.batch"),
		"engine.dense_factors_per_eval": float64(dense) / float64(evals),
		"engine.rank1_per_eval":         float64(rank1) / float64(evals),
		"trace.unattributed_share":      t.unattributedShare(),
		"trace.overhead_share":          overheadShare(r, traced, untraced),
	}
	if baseEvals > 0 {
		values["atpg.allocs_per_eval"] = float64(allocs) / float64(baseEvals)
	}
	if err := r.fill(perLayer, values); err != nil {
		return nil, err
	}
	return r, t.writeJSON(o.spans)
}

// tracedGA is the outcome of one traced GA run.
type tracedGA struct {
	omegas  []float64
	fitness float64
	evals   int
	zero    int // candidates scored 0 (unsolvable test vectors)
	probes  [][]float64
}

// tracedOptimize is Session.Optimize spelled out over ga.Run: the same
// gene bounds, seed, per-worker trajectory builders, contiguous
// candidate chunks and fitness 1/(1+I), with a span around every
// generation's BatchFitness call and every Builder.Build and
// Map.Intersections call.
func tracedOptimize(ctx context.Context, tr *trace, root uint64, d *dictionary.Dictionary, cfg repro.OptimizeConfig, workers int) (*tracedGA, error) {
	lo, hi := math.Log10(cfg.BandLo), math.Log10(cfg.BandHi)
	bounds := make([]ga.Interval, cfg.NumFrequencies)
	for i := range bounds {
		bounds[i] = ga.Interval{Lo: lo, Hi: hi}
	}
	type worker struct {
		b      *trajectory.Builder
		omegas []float64
		evals  int
		zero   int
	}
	ws := make([]*worker, workers)
	for i := range ws {
		ws[i] = &worker{b: trajectory.NewBuilder(d)}
	}
	var (
		run     openSpan
		gen     uint64
		counter atomic.Int64
		probeMu sync.Mutex
		probes  [][]float64
	)
	eval := func(w *worker, genes []float64) float64 {
		w.omegas = w.omegas[:0]
		for _, g := range genes {
			w.omegas = append(w.omegas, math.Pow(10, g))
		}
		w.evals++
		if counter.Add(1)%16 == 0 {
			probeMu.Lock()
			probes = append(probes, append([]float64(nil), w.omegas...))
			probeMu.Unlock()
		}
		sp := tr.start(gen, "trajectory.build")
		m, err := w.b.Build(ctx, w.omegas)
		tr.end(sp)
		if err != nil {
			w.zero++
			return 0
		}
		sp = tr.start(gen, "geometry.intersections")
		n := m.Intersections()
		tr.end(sp)
		return 1 / (1 + float64(n))
	}
	batch := func(genomes [][]float64, out []float64) {
		sp := tr.start(run.id, "ga.batch_fitness")
		defer tr.end(sp)
		gen = sp.id
		n := len(genomes)
		w := min(workers, n)
		if w <= 1 {
			for i := range genomes {
				out[i] = eval(ws[0], genomes[i])
			}
			return
		}
		per := (n + w - 1) / w
		var wg sync.WaitGroup
		for k := 0; k < w; k++ {
			lo, hi := k*per, min((k+1)*per, n)
			if lo >= hi {
				break
			}
			wg.Add(1)
			go func(st *worker, lo, hi int) {
				defer wg.Done()
				for i := lo; i < hi; i++ {
					out[i] = eval(st, genomes[i])
				}
			}(ws[k], lo, hi)
		}
		wg.Wait()
	}
	run = tr.start(root, "ga.run")
	res, err := ga.Run(ctx, ga.Problem{Bounds: bounds, BatchFitness: batch}, cfg.GA, rand.New(rand.NewSource(cfg.Seed)))
	tr.end(run)
	if err != nil {
		return nil, err
	}
	out := &tracedGA{fitness: res.BestFitness, probes: probes}
	for _, g := range res.Best {
		out.omegas = append(out.omegas, math.Pow(10, g))
	}
	sort.Float64s(out.omegas)
	// Session.Optimize ends by building the chosen vector's map once more
	// for its intersection count.
	sp := tr.start(root, "trajectory.final_map")
	m, err := trajectory.Build(ctx, d, out.omegas)
	if err == nil {
		m.Intersections()
	}
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	for _, w := range ws {
		out.evals += w.evals
		out.zero += w.zero
	}
	return out, nil
}
