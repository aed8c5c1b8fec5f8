// Command ftbench regenerates every figure and experiment of the
// reproduced paper and prints the results as text tables. The -e flag
// lists the experiments, and each one opens with a header line naming
// the figure or question it reproduces. Typical use:
//
//	ftbench                  # run everything (quick GA settings)
//	ftbench -e E4 -full      # one experiment with the paper's full GA
//	ftbench -seed 7          # different random seed
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"

	"repro"
)

func main() {
	var (
		exp     = flag.String("e", "all", "experiment to run: E1..E15, HOTPATH, MULTIFAULT, TOLERANCE, SPARSE, or 'all'")
		seed    = flag.Int64("seed", 1, "random seed for GA and noise draws")
		full    = flag.Bool("full", false, "use the paper's full GA (128x15) everywhere (slower)")
		report  = flag.String("report", "", "output path for the HOTPATH, MULTIFAULT, TOLERANCE or SPARSE report (empty = BENCH_<experiment>.json)")
		date    = flag.String("date", "", "date stamp for benchmark reports (YYYY-MM-DD; empty = today UTC)")
		gate    = flag.String("gate", "", "baseline report to gate the HOTPATH or SPARSE run against (empty = no gate)")
		gateTol = flag.Float64("gate-tol", 0.10, "fractional regression the gates tolerate: HOTPATH compares fitness_eval and trajectory_build ns/op, SPARSE the dense/sparse and blocked/scalar speedup ratios")
		trace   = flag.String("trace", "", "write a JSON timing trace with one span per experiment to this file on exit")
		version = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(repro.VersionString("ftbench"))
		return
	}

	// Ctrl-C cancels the context; every v2 stage aborts within one GA
	// generation / frequency batch.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	runner := &runner{ctx: ctx, seed: *seed, full: *full, out: os.Stdout, report: *report, date: *date, gate: *gate, gateTol: *gateTol}
	experiments := map[string]func() error{
		// HOTPATH, MULTIFAULT, TOLERANCE, and SPARSE are opt-in (not part
		// of 'all'): each writes its report to -report, by default
		// BENCH_hotpath.json, BENCH_multifault.json, BENCH_tolerance.json
		// or BENCH_sparse.json.
		"HOTPATH":    runner.hotpath,
		"MULTIFAULT": runner.multifault,
		"TOLERANCE":  runner.tolerance,
		"SPARSE":     runner.sparse,
		"E1":         runner.e1Dictionary,
		"E2":         runner.e2Transform,
		"E3":         runner.e3Trajectory,
		"E4":         runner.e4GA,
		"E5":         runner.e5Baselines,
		"E6":         runner.e6Frequencies,
		"E7":         runner.e7GAAblation,
		"E8":         runner.e8Noise,
		"E9":         runner.e9Circuits,
		"E10":        runner.e10Reject,
		"E11":        runner.e11Tolerance,
		"E12":        runner.e12Active,
		"E13":        runner.e13Grid,
		"E14":        runner.e14Deployed,
		"E15":        runner.e15Catastrophic,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12", "E13", "E14", "E15"}

	// -trace wraps every experiment in a span; the dump is written on
	// successful exit (os.Exit on a failed experiment skips it).
	var tracer *repro.Tracer
	if *trace != "" {
		tracer = repro.NewTracer()
		defer func() {
			f, err := os.Create(*trace)
			if err == nil {
				err = tracer.WriteJSON(f)
				if cerr := f.Close(); err == nil {
					err = cerr
				}
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "ftbench: trace:", err)
			}
		}()
	}
	runExperiment := func(name string, f func() error) error {
		if tracer != nil {
			defer tracer.StartSpan("experiment." + name).End()
		}
		return f()
	}

	which := strings.ToUpper(*exp)
	if which == "ALL" {
		for _, name := range order {
			if err := runExperiment(name, experiments[name]); err != nil {
				fmt.Fprintf(os.Stderr, "ftbench: %s: %v\n", name, err)
				os.Exit(1)
			}
		}
		return
	}
	f, ok := experiments[which]
	if !ok {
		fmt.Fprintf(os.Stderr, "ftbench: unknown experiment %q (want E1..E15, HOTPATH, MULTIFAULT, TOLERANCE, SPARSE, or all)\n", *exp)
		os.Exit(2)
	}
	if err := runExperiment(which, f); err != nil {
		fmt.Fprintf(os.Stderr, "ftbench: %s: %v\n", which, err)
		os.Exit(1)
	}
}
