package main

import (
	"context"
	"fmt"
	"io"
	"math/rand"

	"repro"
	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/plot"
)

// runner holds shared experiment state. The context bounds every
// long-running stage, so Ctrl-C during a slow experiment aborts within
// one GA generation / frequency batch.
type runner struct {
	ctx     context.Context
	seed    int64
	full    bool
	out     io.Writer
	report  string  // destination of the report; empty = BENCH_<experiment>.json
	date    string  // report date stamp; empty = today (UTC)
	gate    string  // baseline report to gate HOTPATH or SPARSE against ("" = off)
	gateTol float64 // allowed fractional regression before the gate fails

	session  *repro.Session // lazily built paper-CUT session
	gaVector *repro.TestVector
}

func (r *runner) printf(format string, args ...any) {
	fmt.Fprintf(r.out, format, args...)
}

func (r *runner) header(id, title string) {
	r.printf("\n==== %s — %s ====\n", id, title)
}

// paperSession lazily builds (and caches) the paper-CUT session.
func (r *runner) paperSession() (*repro.Session, error) {
	if r.session != nil {
		return r.session, nil
	}
	s, err := repro.NewSession(repro.PaperCUT())
	if err != nil {
		return nil, err
	}
	r.session = s
	return s, nil
}

// gaConfig returns the GA setup: the paper's full parameters with -full,
// otherwise a reduced configuration that preserves the operator choices.
func (r *runner) gaConfig(omega0 float64) repro.OptimizeConfig {
	cfg := repro.PaperOptimizeConfig(omega0)
	cfg.Seed = r.seed
	if !r.full {
		cfg.GA.PopSize = 32
		cfg.GA.Generations = 10
	}
	return cfg
}

// optimizedVector lazily runs the GA once for the paper CUT and caches
// the result for the experiments that need "the" test vector.
func (r *runner) optimizedVector() (*repro.TestVector, error) {
	if r.gaVector != nil {
		return r.gaVector, nil
	}
	p, err := r.paperSession()
	if err != nil {
		return nil, err
	}
	tv, err := p.Optimize(r.ctx, r.gaConfig(p.CUT().Omega0))
	if err != nil {
		return nil, err
	}
	r.gaVector = tv
	return tv, nil
}

// e1Dictionary reproduces Figure 1: the golden magnitude response plus
// the fault-dictionary items (here for component R3, the component the
// paper's Figure 3 features), across the response band.
func (r *runner) e1Dictionary() error {
	r.header("E1 / Fig.1", "golden behaviour & fault dictionary items (R3 deviations)")
	p, err := r.paperSession()
	if err != nil {
		return err
	}
	d := p.Dictionary()
	grid := numeric.Logspace(0.01, 100, 13)
	devs := fault.PaperDeviations()

	r.printf("%-10s %10s", "ω (rad/s)", "golden")
	for _, dev := range devs {
		r.printf(" %9.0f%%", dev*100)
	}
	r.printf("\n")
	for _, w := range grid {
		g, err := d.GoldenResponse(w)
		if err != nil {
			return err
		}
		r.printf("%-10.4g %10.5f", w, g)
		for _, dev := range devs {
			m, err := d.Response(repro.Fault{Component: "R3", Deviation: dev}, w)
			if err != nil {
				return err
			}
			r.printf(" %10.5f", m)
		}
		r.printf("\n")
	}
	// Render the figure itself: golden and extreme deviations in dB.
	dense := numeric.Logspace(0.05, 20, 60)
	chart := plot.New("Fig.1 — |H| (dB) vs ω: golden (*) with R3 at -40% (o) and +40% (+)", 72, 16).
		LogX().Labels("ω rad/s", "dB")
	mkSeries := func(name string, f repro.Fault, marker rune) error {
		ys := make([]float64, len(dense))
		for i, w := range dense {
			m, err := d.Response(f, w)
			if err != nil {
				return err
			}
			ys[i] = numeric.Db(m)
		}
		return chart.Add(plot.Series{Name: name, X: dense, Y: ys, Marker: marker})
	}
	if err := mkSeries("golden", repro.Fault{}, '*'); err != nil {
		return err
	}
	if err := mkSeries("R3@-40%", repro.Fault{Component: "R3", Deviation: -0.4}, 'o'); err != nil {
		return err
	}
	if err := mkSeries("R3@+40%", repro.Fault{Component: "R3", Deviation: 0.4}, '+'); err != nil {
		return err
	}
	r.printf("%s", chart.Render())
	r.printf("shape check: low-pass family, deviations fan out around the golden curve\n")
	return nil
}

// e2Transform reproduces Figure 2: sampling the golden (H) and one
// faulty (K) curve at two frequencies maps each to one XY point.
func (r *runner) e2Transform() error {
	r.header("E2 / Fig.2", "transformation of curves into coordinate data")
	p, err := r.paperSession()
	if err != nil {
		return err
	}
	d := p.Dictionary()
	f1, f2 := 0.5, 2.0
	k := repro.Fault{Component: "R3", Deviation: 0.4}

	a1, err := d.GoldenResponse(f1)
	if err != nil {
		return err
	}
	a2, err := d.GoldenResponse(f2)
	if err != nil {
		return err
	}
	b1, err := d.Response(k, f1)
	if err != nil {
		return err
	}
	b2, err := d.Response(k, f2)
	if err != nil {
		return err
	}
	r.printf("test vector: f1=%.3g f2=%.3g rad/s\n", f1, f2)
	r.printf("H (golden): H(f1)=A1=%.5f  H(f2)=A2=%.5f  ->  point (A1,A2)=(%.5f, %.5f)\n", a1, a2, a1, a2)
	r.printf("K (%s):     K(f1)=B1=%.5f  K(f2)=B2=%.5f  ->  point (B1,B2)=(%.5f, %.5f)\n", k.ID(), b1, b2, b1, b2)
	sig, err := d.Signature(k, []float64{f1, f2})
	if err != nil {
		return err
	}
	r.printf("after moving the golden point to the origin: K -> (%.5f, %.5f)\n", sig[0], sig[1])
	return nil
}

// e3Trajectory reproduces Figure 3: the R3 fault trajectory and the
// diagnosis of an unknown fault by perpendicular projection.
func (r *runner) e3Trajectory() error {
	r.header("E3 / Fig.3", "R3 fault trajectory (left) and fault diagnosis (right)")
	p, err := r.paperSession()
	if err != nil {
		return err
	}
	tv, err := r.optimizedVector()
	if err != nil {
		return err
	}
	m, err := p.Trajectories(r.ctx, tv.Omegas)
	if err != nil {
		return err
	}
	r.printf("test vector (GA): ω = %.4g, %.4g rad/s (I = %d)\n", tv.Omegas[0], tv.Omegas[1], m.Intersections())

	tr, err := m.ByComponent("R3")
	if err != nil {
		return err
	}
	r.printf("R3 trajectory points (deviation -> (x, y)):\n")
	for i, pt := range tr.Points {
		r.printf("  %+4.0f%% -> (%+.5f, %+.5f)\n", tr.Deviations[i]*100, pt[0], pt[1])
	}

	// The unknown fault (*) of the figure: an off-grid R3 deviation.
	unknown := repro.Fault{Component: "R3", Deviation: 0.25}
	dg, err := p.Diagnoser(r.ctx, tv.Omegas)
	if err != nil {
		return err
	}
	res, err := dg.DiagnoseSet(p.Dictionary(), unknown)
	if err != nil {
		return err
	}
	// Render the trajectory plane: every component's polyline plus the
	// unknown-fault point.
	chart := plot.New("Fig.3 — fault trajectories in the (Δ|H(f1)|, Δ|H(f2)|) plane", 72, 20).
		Labels("Δ|H(f1)|", "Δ|H(f2)|")
	for _, tr := range m.Trajectories {
		xs := make([]float64, len(tr.Points))
		ys := make([]float64, len(tr.Points))
		for i, pt := range tr.Points {
			xs[i], ys[i] = pt[0], pt[1]
		}
		if err := chart.Add(plot.Series{Name: tr.Component, X: xs, Y: ys}); err != nil {
			return err
		}
	}
	sig, err := p.Dictionary().Signature(unknown, tv.Omegas)
	if err != nil {
		return err
	}
	if err := chart.Add(plot.Series{Name: "unknown (*)", X: sig[:1], Y: sig[1:], Marker: '?'}); err != nil {
		return err
	}
	r.printf("%s", chart.Render())

	r.printf("unknown fault (*): %s\n", unknown.ID())
	r.printf("perpendicular distances to each trajectory (best first):\n%s", res)
	best := res.Best()
	r.printf("verdict: %s (estimated deviation %+.0f%%) — %s\n",
		best.Component, best.Deviation*100, verdict(best.Component == unknown.Component))
	return nil
}

func verdict(ok bool) string {
	if ok {
		return "CORRECT"
	}
	return "WRONG"
}

// e4GA reproduces §2.4: the GA run with the paper's parameters and the
// fitness 1/(1+I).
func (r *runner) e4GA() error {
	r.header("E4 / §2.4", "GA with paper parameters (128 ind., 15 gen., 50% repro., 40% mut., roulette)")
	p, err := r.paperSession()
	if err != nil {
		return err
	}
	cfg := repro.PaperOptimizeConfig(p.CUT().Omega0)
	cfg.Seed = r.seed
	if !r.full {
		r.printf("(reduced GA: 32x10 — run with -full for the paper's 128x15)\n")
		cfg.GA.PopSize = 32
		cfg.GA.Generations = 10
	}
	tv, err := p.Optimize(r.ctx, cfg)
	if err != nil {
		return err
	}
	r.printf("%-5s %10s %10s %10s\n", "gen", "best", "mean", "worst")
	for _, g := range tv.History {
		r.printf("%-5d %10.5f %10.5f %10.5f\n", g.Generation, g.Best, g.Mean, g.Worst)
	}
	r.printf("best test vector: ω = %.5g, %.5g rad/s | fitness = %.4f | I = %d | evaluations = %d\n",
		tv.Omegas[0], tv.Omegas[1], tv.Fitness, tv.Intersections, tv.Evaluations)
	r.gaVector = tv
	return nil
}

// e5Baselines compares the GA-optimized vector against random, grid and
// sensitivity baselines on hold-out diagnosis accuracy.
func (r *runner) e5Baselines() error {
	r.header("E5", "diagnosis accuracy: GA vs baselines (hold-out faults ±15/25/35%)")
	p, err := r.paperSession()
	if err != nil {
		return err
	}
	atpg := p.ATPG()
	tv, err := r.optimizedVector()
	if err != nil {
		return err
	}
	rng := rand.New(rand.NewSource(r.seed + 7919)) // decouple from the GA's seed
	budget := tv.Evaluations
	if budget < 10 {
		budget = 10
	}
	random, err := atpg.RandomVector(r.ctx, 2, 0.01, 100, budget, rng)
	if err != nil {
		return err
	}
	randomSmall, err := atpg.RandomVector(r.ctx, 2, 0.01, 100, 3, rng)
	if err != nil {
		return err
	}
	grid, err := atpg.GridVector(r.ctx, 2, 0.01, 100, 12)
	if err != nil {
		return err
	}
	sens, err := atpg.SensitivityVector(r.ctx, 2, 0.01, 100, 12, 0.3)
	if err != nil {
		return err
	}

	r.printf("%-17s %22s %4s %9s %9s %9s\n", "strategy", "ω (rad/s)", "I", "fitness", "top1-acc", "top2-acc")
	for _, row := range []struct {
		name string
		tv   *repro.TestVector
	}{
		{"GA (paper)", tv},
		{"random (=budget)", random},
		{"random (3 draws)", randomSmall},
		{"grid", grid},
		{"sensitivity", sens},
	} {
		ev, err := p.Evaluate(r.ctx, row.tv.Omegas, nil)
		if err != nil {
			return err
		}
		r.printf("%-17s %10.4g %10.4g %4d %9.4f %8.1f%% %8.1f%%\n",
			row.name, row.tv.Omegas[0], row.tv.Omegas[1], row.tv.Intersections,
			row.tv.Fitness, 100*ev.Accuracy(), 100*ev.TopTwoAccuracy())
	}
	r.printf("expected shape: GA >= baselines on fitness; accuracy ordering GA ~ grid > random\n")
	return nil
}
