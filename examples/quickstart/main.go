// Quickstart: the full fault-trajectory workflow on the paper's circuit
// under test in ~40 lines of the v2 Session API — build the fault
// dictionary, optimize a two-frequency test vector with the paper's GA
// (streaming per-generation progress), and diagnose an injected
// off-grid fault. Ctrl-C cancels mid-run via the context.
package main

import (
	"context"
	"fmt"
	"log"
	"os"
	"os/signal"

	"repro"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	// 1. The CUT: a normalized 7-passive negative-feedback low-pass
	//    filter (the paper's application example).
	cut := repro.PaperCUT()
	fmt.Printf("CUT: %s\n     %s\n", cut.Circuit.Name(), cut.Description)

	// 2. Fault simulation: open a session over the paper's ±10%…±40%
	//    parametric fault universe (the default), with GA progress
	//    streamed to the terminal.
	session, err := repro.NewSession(cut,
		repro.WithProgress(func(p repro.Progress) {
			if p.Stage == repro.StageOptimize {
				fmt.Printf("  gen %2d/%d  best fitness %.3f\n", p.Completed, p.Total, p.BestFitness)
			}
		}),
	)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("fault universe: %d single faults\n", session.Dictionary().Universe().Size())

	// 3. Test-vector optimization: the paper's GA (roulette wheel,
	//    fitness 1/(1+I)) picks two stimulus frequencies whose fault
	//    trajectories do not intersect.
	cfg := repro.PaperOptimizeConfig(cut.Omega0)
	tv, err := session.Optimize(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GA test vector: ω = %.4g, %.4g rad/s (fitness %.3f, I = %d, %d evaluations)\n",
		tv.Omegas[0], tv.Omegas[1], tv.Fitness, tv.Intersections, tv.Evaluations)

	// 4. Diagnosis: inject an unknown fault that is NOT in the
	//    dictionary (+25% sits between the ±20% and ±30% grid points)
	//    and locate it by perpendicular projection onto the trajectories.
	diagnoser, err := session.Diagnoser(ctx, tv.Omegas)
	if err != nil {
		log.Fatal(err)
	}
	unknown := repro.Fault{Component: "C2", Deviation: 0.25}
	res, err := diagnoser.DiagnoseSet(session.Dictionary(), unknown)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\ninjected unknown fault: %s\n%s", unknown.ID(), res)
	best := res.Best()
	fmt.Printf("=> diagnosed %s with estimated deviation %+.0f%%\n", best.Component, best.Deviation*100)

	// 5. Quantify: accuracy over hold-out faults on every component.
	ev, err := session.Evaluate(ctx, tv.Omegas, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhold-out accuracy over %d trials: %.1f%% (top-2: %.1f%%)\n",
		ev.Total, 100*ev.Accuracy(), 100*ev.TopTwoAccuracy())
}
