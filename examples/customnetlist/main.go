// Custom netlist: apply the fault-trajectory method to a user-supplied
// circuit instead of a built-in benchmark. The circuit here is a
// two-stage RC-coupled band-pass network described in the SPICE-subset
// dialect; the example diagnoses faults on all five passives.
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"repro"
)

const bandpass = `two-stage rc bandpass
* high-pass section (C1, R1) into a low-pass section (R2, C2) with load
V1 in 0 1
C1 in a 1
R1 a 0 1
R2 a b 0.5
C2 b 0 2
RL b 0 10
.end
`

func main() {
	ctx := context.Background()

	// Parse and inspect the netlist first. A syntax error would be a
	// ParseError carrying the offending line number and card text.
	circ, err := repro.ParseNetlist(bandpass)
	if err != nil {
		var pe *repro.ParseError
		if errors.As(err, &pe) {
			log.Fatalf("netlist line %d: %s (%q)", pe.Line, pe.Msg, pe.Card)
		}
		log.Fatal(err)
	}
	fmt.Printf("parsed %q: %d elements, %d nodes\n",
		circ.Name(), len(circ.Elements()), circ.NumNodes())

	// Open a session straight from the netlist text. Without
	// WithComponents, every R/C/L element becomes a fault target.
	session, err := repro.NewSessionFromNetlist(bandpass, "V1", "b")
	if err != nil {
		log.Fatal(err)
	}
	targets := session.CUT().Passives
	fmt.Printf("fault targets: %v\n", targets)

	// Optimize a 2-frequency test vector around the passband.
	cfg := repro.PaperOptimizeConfig(1.0)
	cfg.GA.PopSize = 64 // netlist CUTs are small; a reduced GA suffices
	cfg.GA.Generations = 12
	tv, err := session.Optimize(ctx, cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("test vector: ω = %.4g, %.4g rad/s (I = %d)\n",
		tv.Omegas[0], tv.Omegas[1], tv.Intersections)

	// Walk every component through an off-grid fault and report.
	diagnoser, err := session.Diagnoser(ctx, tv.Omegas)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%-10s %-12s %-10s\n", "injected", "diagnosed", "est. dev")
	for _, comp := range targets {
		for _, dev := range []float64{-0.25, 0.25} {
			f := repro.Fault{Component: comp, Deviation: dev}
			res, err := diagnoser.DiagnoseSet(session.Dictionary(), f)
			if err != nil {
				log.Fatal(err)
			}
			best := res.Best()
			mark := ""
			if best.Component != comp {
				mark = "  <- MISS (ambiguity set: " + ambiguity(res) + ")"
			}
			fmt.Printf("%-10s %-12s %+8.0f%%%s\n", f.ID(), best.Component, best.Deviation*100, mark)
		}
	}
}

func ambiguity(res *repro.DiagnosisResult) string {
	s := ""
	for i, c := range res.AmbiguitySet(1.5) {
		if i > 0 {
			s += ","
		}
		s += c.Component
	}
	return s
}
