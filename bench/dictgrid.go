package main

import (
	"context"
	"fmt"
	"math/rand"
	"runtime/debug"
	"time"

	"repro"
	"repro/internal/engine"
	"repro/internal/numeric"
)

// runDictGrid is what a user pays to build a dictionary for a CUT
// nobody has seen before: one op is a cold Precompute of the whole
// single-fault universe (24 diagonal targets × 8 paper deviations) over
// 32 seeded log-uniform frequencies in [ω₀/100, ω₀·100], on a fresh
// session (timed as set-up) with GOMAXPROCS frequency workers. A forced
// collection that returns the freed memory separates ops, untimed. The load falls on the
// sparse numeric phase and on the engine's per-worker workspaces.
func runDictGrid(ctx context.Context, o options, sz sizes) (*result, error) {
	r := newResult("dict-grid")
	cut, err := repro.BenchmarkByName(sz.gridCUT)
	if err != nil {
		return nil, err
	}
	if sz.gridOmegas%numeric.FreqBlock != 0 {
		return nil, fmt.Errorf("%d frequencies is not a multiple of %d", sz.gridOmegas, numeric.FreqBlock)
	}
	rng := rand.New(rand.NewSource(o.seed))
	omegas := func() []float64 { return logUniform(rng, cut.Omega0/100, cut.Omega0*100, sz.gridOmegas) }
	// build is one op on a fresh session; the caller drops the previous
	// session first, so only one dictionary's workspaces are alive.
	build := func(om []float64) (*repro.Session, opTime, opTime, error) {
		settle()
		stopSetup := startOp()
		s, err := repro.NewSession(cut, repro.WithWorkers(o.workers))
		setup := stopSetup()
		if err != nil {
			return nil, setup, opTime{}, err
		}
		stop := startOp()
		err = s.Precompute(ctx, om)
		return s, setup, stop(), err
	}
	// One untimed build warms the code paths; its session is dropped.
	if _, _, _, err := build(omegas()); err != nil {
		return nil, err
	}
	if o.trace {
		return traceDictGrid(ctx, o, sz, r, cut, omegas, build)
	}
	var setups, ops []opTime
	var last *repro.Session
	var lastOm []float64
	start := time.Now()
	for i := 0; until(start, o.seconds, i, sz.gridOps); i++ {
		last = nil
		om := omegas()
		s, setup, op, err := build(om)
		r.Attempted++
		setups = append(setups, setup)
		ops = append(ops, op)
		if err != nil {
			r.failOp("build %d: %v", i, err)
			continue
		}
		last, lastOm = s, om
	}
	if last != nil {
		checkDictGrid(r, last, lastOm, sz.gridChecks, rng)
	}
	if err := closedLoopMetrics(r, setups, ops); err != nil {
		return nil, err
	}
	return r, nil
}

// checkDictGrid compares sampled memoized responses of a finished build
// with ScalarResponse, the independent per-point solver that clones the
// circuit, injects the fault and factors a fresh MNA system.
func checkDictGrid(r *result, s *repro.Session, omegas []float64, samples int, rng *rand.Rand) {
	d := s.Dictionary()
	faults := d.Universe().Faults()
	peak := 0.0
	for _, w := range omegas {
		g, err := d.GoldenResponse(w)
		if err != nil {
			r.fail("golden at ω=%g: %v", w, err)
			return
		}
		peak = max(peak, g)
	}
	for k := 0; k < samples; k++ {
		f := faults[rng.Intn(len(faults))]
		w := omegas[rng.Intn(len(omegas))]
		got, err := d.Response(f, w)
		if err != nil {
			r.fail("%s at ω=%g: %v", f.ID(), w, err)
			continue
		}
		want, err := d.ScalarResponse(f, w)
		if err != nil {
			r.fail("%s at ω=%g: scalar: %v", f.ID(), w, err)
			continue
		}
		if !relClose(got, want, peak) {
			r.fail("%s at ω=%g: dictionary %.15g, scalar %.15g", f.ID(), w, got, want)
		}
	}
}

// traceDictGrid is the traced run. Each frequency grid is built twice in
// a row on fresh sessions, untraced and then traced (set-up and cold
// build as spans), which gives the tracing overhead with the host's
// drift cancelled. A probe trace then replays the layers under the
// traced build: a warm rebuild; the engine batch alone on one worker and
// on GOMAXPROCS workers; engine.Compile, engine.New and the symbolic
// analysis; and the column split into stamp, blocked refactor and block
// solve per frequency.
func traceDictGrid(ctx context.Context, o options, sz sizes, r *result, cut repro.CUT, omegas func() []float64,
	build func([]float64) (*repro.Session, opTime, opTime, error)) (*result, error) {
	rows, err := patternRows(cut)
	if err != nil {
		return nil, err
	}
	t := newTracer(20000)
	var untraced, traced []opTime
	var counts engine.PathStatsSnapshot
	var coldMB, warmMB float64
	var sym *numeric.SparseSymbolic
	var last *repro.Session
	var lastOm []float64
	rng := rand.New(rand.NewSource(o.seed + 1))
	start := time.Now()
	for i := 0; until(start, o.seconds, i, sz.gridOps); i++ {
		last = nil
		om := omegas()
		_, _, plain, err := build(om)
		r.Attempted++
		if err != nil {
			r.failOp("build %d: %v", i, err)
			continue
		}
		settle()
		tr := t.newTrace(true)
		root := tr.start(0, "op")
		sp := tr.start(root.id, "repro.new_session")
		s, err := repro.NewSession(cut, repro.WithWorkers(o.workers))
		tr.end(sp)
		r.Attempted++
		if err != nil {
			r.failOp("traced build %d: %v", i, err)
			tr.end(root)
			tr.finish()
			continue
		}
		eng := s.Dictionary().Engine()
		st0 := eng.Stats()
		stop := startOp()
		sp = tr.start(root.id, "dictionary.precompute")
		err = s.Precompute(ctx, om)
		tr.end(sp)
		cold := stop()
		counts.Add(statsDelta(st0, eng.Stats()))
		tr.end(root)
		tr.finish()
		if err != nil {
			r.failOp("traced build %d: %v", i, err)
			continue
		}
		untraced, traced = append(untraced, plain), append(traced, cold)
		coldMB += cold.allocMB

		// The warm rebuild and the batch replays go first, while the
		// engine's pool still holds the cold build's workspaces.
		probe := t.newTrace(false)
		proot := probe.start(0, "probe")
		stop = startOp()
		sp = probe.start(proot.id, "dictionary.precompute_warm")
		err = s.Precompute(ctx, om)
		probe.end(sp)
		warmMB += stop().allocMB
		if err != nil {
			return nil, err
		}
		faults := s.Dictionary().Universe().Faults()
		for _, w := range []struct {
			name    string
			workers int
		}{{"engine.batch_1w", 1}, {"engine.batch_2w", o.workers}} {
			sp = probe.start(proot.id, w.name)
			_, err = eng.BatchResponses(ctx, faults, om, w.workers)
			probe.end(sp)
			if err != nil {
				return nil, err
			}
		}
		sp = probe.start(proot.id, "engine.compile")
		_, err = engine.Compile(cut.Circuit)
		probe.end(sp)
		if err != nil {
			return nil, err
		}
		sp = probe.start(proot.id, "engine.new")
		_, err = engine.New(cut.Circuit, cut.Source, cut.Output)
		probe.end(sp)
		if err != nil {
			return nil, err
		}
		sp = probe.start(proot.id, "numeric.analyze")
		sym, err = numeric.AnalyzeSparse(len(rows), rows)
		probe.end(sp)
		if err != nil {
			return nil, err
		}
		split, err := newColumnSplit(eng.Template(), len(s.Universe().Components), rng)
		if err != nil {
			return nil, err
		}
		if err := split.run(probe, proot.id, om); err != nil {
			return nil, err
		}
		probe.end(proot)
		probe.finish()
		last, lastOm = s, om
	}
	ops := len(traced)
	if ops == 0 {
		return nil, fmt.Errorf("no traced build completed")
	}
	if last != nil {
		checkDictGrid(r, last, lastOm, sz.gridChecks, rng)
		if want := last.Dictionary().Engine().Template().SparsePattern(); want.NNZ() != sym.NNZ() {
			r.fail("analyzed pattern has %d nonzeros, the engine's %d", sym.NNZ(), want.NNZ())
		}
	}
	ms := func(name string) float64 { return t.meanUs(name) / 1e3 }
	nf := float64(sz.gridOmegas)
	stamp, refactor, solve := perFreqUs(t)
	n := float64(ops)
	values := map[string]float64{
		"engine.compile_ms":           ms("engine.compile"),
		"engine.new_ms":               ms("engine.new"),
		"numeric.analyze_ms":          ms("numeric.analyze"),
		"dictionary.cold_build_ms":    ms("dictionary.precompute"),
		"dictionary.warm_build_ms":    ms("dictionary.precompute_warm"),
		"engine.first_call_ms":        ms("dictionary.precompute") - ms("dictionary.precompute_warm"),
		"engine.alloc_mb_cold":        coldMB / n,
		"engine.alloc_mb_warm":        warmMB / n,
		"engine.stamp_us":             stamp,
		"numeric.refactor_us":         refactor,
		"numeric.solve_us":            solve,
		"engine.residual_us":          t.meanUs("engine.batch_1w")/nf - stamp - refactor - solve,
		"engine.batch_1w_ms":          ms("engine.batch_1w"),
		"engine.batch_2w_ms":          ms("engine.batch_2w"),
		"engine.pool_speedup":         ms("engine.batch_1w") / ms("engine.batch_2w"),
		"dictionary.memo_ms":          ms("dictionary.precompute_warm") - ms("engine.batch_2w"),
		"engine.sparse_factors":       float64(counts.SparseFactors) / n,
		"engine.supernodal_refactors": float64(counts.SupernodalRefactors) / n,
		"engine.rank1_solves":         float64(counts.Rank1Solves) / n,
		"engine.exact_fallbacks":      float64(counts.ExactFallbacks) / n,
		"engine.partial_refactors":    float64(counts.PartialRefactors) / n,
		"engine.dense_fallbacks":      float64(counts.DenseFallbackExact+counts.DenseFallbackSingular) / n,
		"numeric.nnz":                 float64(sym.NNZ()),
		"numeric.lu_nnz":              float64(sym.LUNNZ()),
		"numeric.supernodes":          float64(sym.Supernodes()),
		"numeric.lu_bytes":            float64(16 * sym.LUNNZ()),
		"trace.unattributed_share":    t.unattributedShare(),
		"trace.overhead_share":        overheadShare(r, traced, untraced),
	}
	if err := r.fill(perLayer, values); err != nil {
		return nil, err
	}
	return r, t.writeJSON(o.spans)
}

// settle collects the dropped session and returns its memory to the
// operating system, so every cold build starts from the same heap state:
// how much freed heap a build can reuse moves its cost by a third.
func settle() { debug.FreeOSMemory() }

// patternRows reads the CUT's structural MNA pattern from two dense
// stamps (DC and a generic frequency), in the row-list form
// numeric.AnalyzeSparse takes, so the symbolic analysis can be timed on
// its own.
func patternRows(cut repro.CUT) ([][]int, error) {
	tm, err := engine.Compile(cut.Circuit)
	if err != nil {
		return nil, err
	}
	n := tm.Size()
	nz := make([][]bool, n)
	for i := range nz {
		nz[i] = make([]bool, n)
	}
	for _, s := range []complex128{0, complex(0, 2.7182818)} {
		a, _, err := tm.System().StampAt(s)
		if err != nil {
			return nil, err
		}
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if a.At(i, j) != 0 {
					nz[i][j] = true
				}
			}
		}
	}
	rows := make([][]int, n)
	for i := range rows {
		for j, on := range nz[i] {
			if on {
				rows[i] = append(rows[i], j)
			}
		}
	}
	return rows, nil
}
