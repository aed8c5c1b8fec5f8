// Active faults: the paper's functional fault model (its ref. [7], the
// FFM) covers active devices by treating their macromodel parameters as
// fault targets. This example replaces the CUT's ideal opamp with the
// single-pole macromodel, extends the fault universe with the
// macromodel's elements, and diagnoses both a passive and an active
// fault from the same trajectory map.
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
)

func main() {
	ctx := context.Background()
	cut, err := repro.PaperCUTMacro()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CUT: %s\n", cut.Description)
	fmt.Printf("fault targets (%d): %v\n", len(cut.Passives), cut.Passives)

	session, err := repro.NewSession(cut)
	if err != nil {
		log.Fatal(err)
	}
	cfg := repro.PaperOptimizeConfig(cut.Omega0)
	cfg.GA.PopSize = 48
	cfg.GA.Generations = 12
	tv, err := session.Optimize(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("GA test vector: ω = %.4g, %.4g rad/s (I = %d over %d trajectories)\n\n",
		tv.Omegas[0], tv.Omegas[1], tv.Intersections, len(cut.Passives))

	diagnoser, err := session.Diagnoser(ctx, tv.Omegas)
	if err != nil {
		log.Fatal(err)
	}
	// Hidden faults: one passive, one on the opamp's dominant pole
	// (GBW fault appears as a pole-capacitor deviation), one on the
	// opamp's gain stage.
	for _, hidden := range []repro.Fault{
		{Component: "C2", Deviation: -0.3},
		{Component: "U1.Cp", Deviation: 0.35}, // GBW down 26% → pole cap up 35%
		{Component: "U1.E", Deviation: -0.25}, // open-loop gain down 25%
	} {
		res, err := diagnoser.DiagnoseSet(session.Dictionary(), hidden)
		if err != nil {
			log.Fatal(err)
		}
		best := res.Best()
		status := "OK  "
		if best.Component != hidden.Component {
			status = "MISS"
		}
		kind := "passive"
		if len(hidden.Component) > 2 && hidden.Component[:2] == "U1" {
			kind = "opamp macromodel"
		}
		fmt.Printf("%s hidden %-12s (%-16s) -> %-7s est %+5.0f%%\n",
			status, hidden.ID(), kind, best.Component, best.Deviation*100)
	}

	// Summary: full hold-out accuracy over all 11 targets.
	ev, err := session.Evaluate(ctx, tv.Omegas, nil)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nhold-out accuracy over all %d targets: %.1f%%\n",
		len(cut.Passives), 100*ev.Accuracy())
}
