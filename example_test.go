package repro_test

import (
	"context"
	"fmt"
	"log"

	"repro"
)

// ExampleNewSession demonstrates the v2 entry point: functional options,
// context threading, and the minimal diagnose flow with a fixed
// (pre-optimized) test vector.
func ExampleNewSession() {
	session, err := repro.NewSession(repro.PaperCUT(), repro.WithWorkers(2))
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	diagnoser, err := session.Diagnoser(ctx, []float64{0.56, 4.55})
	if err != nil {
		log.Fatal(err)
	}
	res, err := diagnoser.DiagnoseSet(session.Dictionary(),
		repro.Fault{Component: "R3", Deviation: 0.25})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s at %+.0f%%\n", res.Best().Component, res.Best().Deviation*100)
	// Output: R3 at +25%
}

// ExampleSession_Optimize runs a reduced GA under a context and reports
// the optimized test vector's quality.
func ExampleSession_Optimize() {
	session, err := repro.NewSession(repro.PaperCUT())
	if err != nil {
		log.Fatal(err)
	}
	cfg := repro.PaperOptimizeConfig(1) // ω0 = 1 for the normalized CUT
	cfg.GA.PopSize = 32
	cfg.GA.Generations = 10
	tv, err := session.Optimize(context.Background(), cfg)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d frequencies, I = %d, fitness %.2f\n",
		len(tv.Omegas), tv.Intersections, tv.Fitness)
	// Output: 2 frequencies, I = 0, fitness 1.00
}

// ExampleParseNetlist shows the SPICE-subset parser.
func ExampleParseNetlist() {
	c, err := repro.ParseNetlist(`rc lowpass
V1 in 0 1
R1 in out 4.7k
C1 out 0 100n
.end
`)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(c.Name(), len(c.Elements()))
	// Output: rc lowpass 3
}

// ExampleSession_Fitness evaluates the paper's fitness 1/(1+I) for an
// explicit frequency pair.
func ExampleSession_Fitness() {
	session, err := repro.NewSession(repro.PaperCUT())
	if err != nil {
		log.Fatal(err)
	}
	fit, err := session.Fitness(context.Background(), []float64{0.56, 4.55})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%.2f\n", fit)
	// Output: 1.00
}

// ExampleFault_ID shows the paper-style fault identifiers.
func ExampleFault_ID() {
	fmt.Println(repro.Fault{Component: "C2", Deviation: -0.4}.ID())
	fmt.Println(repro.Fault{}.ID())
	// Output:
	// C2@-40%
	// golden
}
