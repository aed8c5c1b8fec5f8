package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/fault"
)

// runDictPairs uses the engine layer differently from dict-grid: one op
// is Dictionary().BuildGridSets over every double fault of a fresh
// opamp-cascade-32 session (every 5th passive at ±30%: 1984 pairs) at 16
// seeded log-uniform frequencies — ~32k rank-2 Woodbury items against
// 16 golden refactorizations, then the dictionary memo. The session
// build is timed as set-up. A refactor-only speed-up shows on dict-grid
// and not here; an item-loop or memo speed-up shows here.
func runDictPairs(ctx context.Context, o options, sz sizes) (*result, error) {
	r := newResult("dict-pairs")
	cut, err := repro.BenchmarkByName(sz.pairsCUT)
	if err != nil {
		return nil, err
	}
	var comps []string
	for i := 0; i < len(cut.Passives); i += sz.pairsStride {
		comps = append(comps, cut.Passives[i])
	}
	opts := []repro.Option{
		repro.WithComponents(comps...),
		repro.WithDeviations(-0.3, 0.3),
		repro.WithDoubleFaults(0),
		repro.WithWorkers(o.workers),
	}
	rng := rand.New(rand.NewSource(o.seed))
	omegas := func() []float64 { return logUniform(rng, cut.Omega0/100, cut.Omega0*100, sz.pairsOmegas) }
	op := pairsOp{cut: cut, opts: opts, workers: o.workers}
	if _, err := op.run(ctx, nil, omegas()); err != nil { // untimed warm-up
		return nil, err
	}
	if o.trace {
		return traceDictPairs(ctx, o, sz, r, &op, omegas)
	}
	var setups, ops []opTime
	var last *pairsRun
	start := time.Now()
	for i := 0; until(start, o.seconds, i, sz.pairsOps); i++ {
		run, err := op.run(ctx, nil, omegas())
		r.Attempted++
		setups = append(setups, run.setup)
		ops = append(ops, run.t)
		if err != nil {
			r.failOp("build %d: %v", i, err)
			continue
		}
		last = run
	}
	if last != nil {
		checkDictPairs(r, last, sz.pairsChecks, rng)
	}
	if err := closedLoopMetrics(r, setups, ops); err != nil {
		return nil, err
	}
	return r, nil
}

// pairsOp builds one fresh session and its double-fault grid.
type pairsOp struct {
	cut     repro.CUT
	opts    []repro.Option
	workers int
}

// pairsRun is one finished op.
type pairsRun struct {
	s      *repro.Session
	sets   []fault.Set
	omegas []float64
	setup  opTime
	t      opTime
	stats  engine.PathStatsSnapshot // engine path counters of the build
}

// run times one op at the given frequencies. With a trace, the session
// build and the grid build are spans under an op root. A failed op
// returns its times with the error.
func (p *pairsOp) run(ctx context.Context, tr *trace, omegas []float64) (*pairsRun, error) {
	var root, sp openSpan
	if tr != nil {
		root = tr.start(0, "op")
		defer func() {
			tr.end(root)
			tr.finish()
		}()
		sp = tr.start(root.id, "repro.new_session")
	}
	stopSetup := startOp()
	s, err := repro.NewSession(p.cut, p.opts...)
	run := &pairsRun{s: s, setup: stopSetup()}
	if tr != nil {
		tr.end(sp)
	}
	if err != nil {
		return run, err
	}
	run.sets = asSets(s.DoubleFaults())
	run.omegas = omegas
	eng := s.Dictionary().Engine()
	st0 := eng.Stats()
	if tr != nil {
		sp = tr.start(root.id, "dictionary.build_grid_sets")
	}
	stop := startOp()
	err = s.Dictionary().BuildGridSets(ctx, run.sets, run.omegas, p.workers)
	run.t = stop()
	if tr != nil {
		tr.end(sp)
	}
	run.stats = statsDelta(st0, eng.Stats())
	return run, err
}

// checkDictPairs compares sampled memoized pair responses with the
// per-point analysis of the faulted circuit: CircuitSignature of
// set.Apply(golden) plus the golden response.
func checkDictPairs(r *result, run *pairsRun, samples int, rng *rand.Rand) {
	d := run.s.Dictionary()
	golden := d.Golden()
	peak := 0.0
	for _, w := range run.omegas {
		g, err := d.GoldenResponse(w)
		if err != nil {
			r.fail("golden at ω=%g: %v", w, err)
			return
		}
		peak = max(peak, g)
	}
	for k := 0; k < samples; k++ {
		set := run.sets[rng.Intn(len(run.sets))]
		w := run.omegas[rng.Intn(len(run.omegas))]
		got, err := d.ResponseSet(set, w)
		if err != nil {
			r.fail("%s at ω=%g: %v", set.ID(), w, err)
			continue
		}
		variant, err := set.(fault.Multi).Apply(golden)
		if err != nil {
			r.fail("%s: %v", set.ID(), err)
			continue
		}
		sig, err := d.CircuitSignature(variant, []float64{w})
		if err != nil {
			r.fail("%s at ω=%g: analysis: %v", set.ID(), w, err)
			continue
		}
		g, err := d.GoldenResponse(w)
		if err != nil {
			r.fail("golden at ω=%g: %v", w, err)
			continue
		}
		if want := sig[0] + g; !relClose(got, want, peak) {
			r.fail("%s at ω=%g: dictionary %.15g, analysis %.15g", set.ID(), w, got, want)
		}
	}
}

// traceDictPairs is the traced run. Each frequency grid is built twice
// in a row on fresh sessions, untraced and then traced, which gives the
// tracing overhead with the host's drift cancelled. A probe trace then
// replays the layers under BuildGridSets: the engine batch alone
// (GOMAXPROCS workers and one), the fault-set IDs the memo keys on, and
// the column split.
func traceDictPairs(ctx context.Context, o options, sz sizes, r *result, op *pairsOp, omegas func() []float64) (*result, error) {
	t := newTracer(20000)
	rng := rand.New(rand.NewSource(o.seed + 1))
	var untraced, traced []opTime
	var counts engine.PathStatsSnapshot
	var memoEntries, items float64
	var last *pairsRun
	start := time.Now()
	for i := 0; until(start, o.seconds, i, sz.pairsOps); i++ {
		om := omegas()
		plain, err := op.run(ctx, nil, om)
		r.Attempted++
		if err != nil {
			r.failOp("build %d: %v", i, err)
			continue
		}
		run, err := op.run(ctx, t.newTrace(true), om)
		r.Attempted++
		if err != nil {
			r.failOp("traced build %d: %v", i, err)
			continue
		}
		untraced, traced = append(untraced, plain.t), append(traced, run.t)
		counts.Add(run.stats)
		memoEntries += float64(run.s.Dictionary().CachedCount())
		items += float64(len(run.sets) * len(run.omegas))

		eng := run.s.Dictionary().Engine()
		probe := t.newTrace(false)
		proot := probe.start(0, "probe")
		for _, w := range []struct {
			name    string
			workers int
		}{{"engine.batch", o.workers}, {"engine.batch_1w", 1}} {
			sp := probe.start(proot.id, w.name)
			_, err = eng.BatchResponsesSets(ctx, run.sets, run.omegas, w.workers)
			probe.end(sp)
			if err != nil {
				return nil, err
			}
		}
		sp := probe.start(proot.id, "fault.id")
		for _, set := range run.sets {
			_ = set.ID()
		}
		probe.end(sp)
		split, err := newColumnSplit(eng.Template(), len(run.s.Universe().Components), rng)
		if err != nil {
			return nil, err
		}
		if err := split.run(probe, proot.id, run.omegas); err != nil {
			return nil, err
		}
		probe.end(proot)
		probe.finish()
		last = run
	}
	ops := len(traced)
	if ops == 0 {
		return nil, fmt.Errorf("no traced build completed")
	}
	checkDictPairs(r, last, sz.pairsChecks, rng)
	n := float64(ops)
	ms := func(name string) float64 { return t.meanUs(name) / 1e3 }
	stamp, refactor, solve := perFreqUs(t)
	nf := float64(sz.pairsOmegas)
	residualUs := t.meanUs("engine.batch_1w") - nf*(stamp+refactor+solve)
	values := map[string]float64{
		"engine.batch_ms":                 ms("engine.batch"),
		"dictionary.memo_ms":              ms("dictionary.build_grid_sets") - ms("engine.batch"),
		"fault.id_ms":                     ms("fault.id"),
		"engine.stamp_us":                 stamp,
		"numeric.refactor_us":             refactor,
		"numeric.solve_us":                solve,
		"engine.residual_ns_per_item":     residualUs * 1e3 / (items / n),
		"engine.rankk_solves":             float64(counts.RankKSolves) / n,
		"engine.exact_fallbacks":          float64(counts.ExactFallbacks) / n,
		"engine.partial_refactors":        float64(counts.PartialRefactors) / n,
		"engine.partial_refactor_columns": float64(counts.PartialRefactorColumns) / n,
		"dictionary.memo_entries":         memoEntries / n,
		"trace.unattributed_share":        t.unattributedShare(),
		"trace.overhead_share":            overheadShare(r, traced, untraced),
	}
	if err := r.fill(perLayer, values); err != nil {
		return nil, err
	}
	return r, t.writeJSON(o.spans)
}

// asSets widens a double-fault universe to the fault-set interface.
func asSets(pairs []fault.Multi) []fault.Set {
	sets := make([]fault.Set, len(pairs))
	for i, p := range pairs {
		sets[i] = p
	}
	return sets
}
