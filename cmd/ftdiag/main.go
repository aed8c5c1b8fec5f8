// Command ftdiag runs the fault-trajectory ATPG and diagnosis flow on a
// built-in benchmark circuit or an external netlist.
//
// Examples:
//
//	ftdiag -list
//	ftdiag -cut nf-lowpass-7
//	ftdiag -cut nf-lowpass-7 -inject R3@+25%
//	ftdiag -cut nf-lowpass-7 -inject R3@+25% -json
//	ftdiag -cut nf-lowpass-7 -inject R3@+25% -tolerance 0.05 -mc-samples 200
//	ftdiag -cut nf-lowpass-7 -double-faults -inject R1@+30%+C2@-20%
//	ftdiag -netlist rc.cir -source V1 -output out -inject R1@-30%
//	ftdiag -cut sallen-key-lp -freqs 0.5,2.0
//	ftdiag -cut nf-lowpass-7 -save-trajectories map.json -freqs 0.56,4.55
//
// Ctrl-C cancels the run; the GA and grid builds abort within one
// generation / frequency batch.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/diagnosis"
	"repro/internal/fault"
	"repro/internal/numeric"
	"repro/internal/serve"
)

func main() {
	var (
		list     = flag.Bool("list", false, "list built-in benchmark circuits and exit")
		cutName  = flag.String("cut", "nf-lowpass-7", "built-in benchmark circuit name")
		nlPath   = flag.String("netlist", "", "netlist file (overrides -cut)")
		source   = flag.String("source", "V1", "driving source name (netlist mode)")
		output   = flag.String("output", "out", "observed output node (netlist mode)")
		inject   = flag.String("inject", "", "fault to inject and diagnose, e.g. R3@+25% or R1@+30%+C2@-20% (default: evaluate all hold-out faults)")
		freqsArg = flag.String("freqs", "", "comma-separated test frequencies in rad/s (default: GA-optimized)")
		seed     = flag.Int64("seed", 1, "GA random seed")
		full     = flag.Bool("full", false, "use the paper's full 128x15 GA")
		doubles  = flag.Bool("double-faults", false, "model double faults: the trajectory map gains pair families and multi-fault injections are named, not rejected")
		maxDbl   = flag.Int("max-double-faults", 0, "cap the modeled double-fault universe (0 = no cap)")
		reject   = flag.Float64("reject", 0, "rejection ratio for out-of-model faults (0 disables; try 0.02)")
		tolSigma = flag.Float64("tolerance", 0, "component tolerance sigma in (0, 0.3] for probabilistic diagnosis (requires -mc-samples)")
		mcSamp   = flag.Int("mc-samples", 0, "Monte-Carlo samples per fault cloud; > 0 adds a likelihood-ranked probabilistic diagnosis with confidence and ambiguity groups (requires -tolerance)")
		export   = flag.String("export", "", "write the fault dictionary grid as a versioned artifact to this file and exit")
		saveTraj = flag.String("save-trajectories", "", "write the trajectory map as a versioned artifact to this file and exit")
		loadDict = flag.String("load-dictionary", "", "diagnose against a saved dictionary-grid artifact (requires -freqs; skips grid re-simulation)")
		jsonOut  = flag.Bool("json", false, "emit the diagnosis/evaluation as machine-readable JSON")
		progress = flag.Bool("progress", false, "stream per-generation GA progress to stderr")
		trace    = flag.String("trace", "", "write a JSON timing trace (session stages + per-frequency engine columns) to this file on exit")
		version  = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *version {
		fmt.Println(repro.VersionString("ftdiag"))
		return
	}

	if *list {
		for _, c := range repro.Benchmarks() {
			fmt.Printf("%-18s %s\n", c.Circuit.Name(), c.Description)
		}
		fmt.Println("\nparameterized families (any size n, e.g. -cut rc-ladder-128):")
		for _, f := range repro.BenchmarkFamilies() {
			fmt.Printf("  %s\n", f)
		}
		return
	}

	// A test vector's -freqs is checked before any session is built.
	if *freqsArg != "" && *export == "" {
		if _, err := parseTestFreqs(*freqsArg); err != nil {
			fail(err)
		}
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()

	var opts []repro.Option
	if *progress {
		opts = append(opts, repro.WithProgress(func(p repro.Progress) {
			if p.Stage == repro.StageOptimize {
				fmt.Fprintf(os.Stderr, "ftdiag: GA generation %d/%d best fitness %.4f\n",
					p.Completed, p.Total, p.BestFitness)
			}
		}))
	}
	if *doubles {
		opts = append(opts, repro.WithDoubleFaults(*maxDbl))
	}
	if *mcSamp != 0 || *tolSigma != 0 {
		opts = append(opts,
			repro.WithTolerance(repro.Tolerance{Sigma: *tolSigma}, *mcSamp),
			repro.WithToleranceSeed(*seed))
	}
	if *trace != "" {
		tracer := repro.NewTracer()
		opts = append(opts, repro.WithTracer(tracer))
		// Deferred so every successful exit path dumps the trace (fail()
		// exits hard, so aborted runs leave no partial file).
		defer func() {
			if err := writeTrace(*trace, tracer); err != nil {
				fmt.Fprintln(os.Stderr, "ftdiag: trace:", err)
			}
		}()
	}
	s, err := buildSession(*cutName, *nlPath, *source, *output, opts...)
	if err != nil {
		fail(err)
	}
	cut := s.CUT()
	if !*jsonOut {
		fmt.Printf("circuit: %s (%d fault targets: %s)\n",
			cut.Circuit.Name(), len(cut.Passives), strings.Join(cut.Passives, ", "))
	}

	// Status lines go to stderr under -json so stdout stays pure JSON.
	status := os.Stdout
	if *jsonOut {
		status = os.Stderr
	}

	if *export != "" {
		// Explicit -freqs are merged into the exported grid so a later
		// -load-dictionary (or ftserve warm start) at those frequencies
		// reads stored responses bit-for-bit instead of interpolating.
		var extra []float64
		if *freqsArg != "" {
			if extra, err = repro.ParseFrequencies(*freqsArg); err != nil {
				fail(err)
			}
		}
		if err := exportDictionary(ctx, s, *export, extra); err != nil {
			fail(err)
		}
		fmt.Fprintf(status, "dictionary artifact written to %s\n", *export)
		return
	}

	if *loadDict != "" && *freqsArg == "" {
		fail(fmt.Errorf("-load-dictionary requires -freqs: the saved grid replaces simulation, so the GA cannot search for a test vector"))
	}

	omegas, err := chooseFrequencies(ctx, s, *freqsArg, *seed, *full, *jsonOut)
	if err != nil {
		fail(err)
	}

	if *saveTraj != "" && *loadDict == "" {
		m, err := s.Trajectories(ctx, omegas)
		if err != nil {
			fail(err)
		}
		if err := s.SaveTrajectories(*saveTraj, m); err != nil {
			fail(err)
		}
		fmt.Fprintf(status, "trajectory-map artifact written to %s\n", *saveTraj)
		return
	}

	dg, fit, err := diagnoser(ctx, s, *loadDict, omegas, status)
	if err != nil {
		fail(err)
	}
	if *loadDict == "" && !*jsonOut {
		fmt.Printf("test vector: ω = %s rad/s (fitness %.4f)\n", joinFloats(omegas), fit)
	}
	if err := report(ctx, s, dg, omegas, fit, *inject, *reject, *doubles, *jsonOut); err != nil {
		fail(err)
	}
}

// diagnoser returns the diagnosis stage for the test vector and its paper
// fitness, built live from the session or, given a -load-dictionary
// path, from that grid artifact (checksum-validated against the
// session's CUT, pair rows included) through the ftserve registry's warm
// start, without re-simulating; status lines go to status.
func diagnoser(ctx context.Context, s *repro.Session, grid string, omegas []float64, status io.Writer) (*repro.Diagnoser, float64, error) {
	if grid == "" {
		dg, err := s.Diagnoser(ctx, omegas)
		if err != nil {
			return nil, 0, err
		}
		return dg, fitness(dg.Map()), nil
	}
	dg, ex, err := serve.DiagnoserFromGrid(s, grid, omegas)
	if err != nil {
		return nil, 0, err
	}
	fmt.Fprintf(status, "dictionary artifact %s loaded (grid re-simulation skipped)\n", grid)
	if off := serve.OffGridFrequencies(ex, omegas); len(off) > 0 {
		fmt.Fprintf(status, "warning: ω = %s not stored in the grid; trajectories are log-ω interpolated and may misrank close faults (re-export with -export -freqs to pin them)\n", joinFloats(off))
	}
	return dg, fitness(dg.Map()), nil
}

// fitness is the paper's 1/(1+I) for a diagnosis map, with I counted
// over its single-fault trajectories as Session.Fitness counts it: the
// GA's objective never sees the pair families a double-fault map adds
// for diagnosis.
func fitness(m *repro.TrajectoryMap) float64 {
	singles := &repro.TrajectoryMap{Omegas: m.Omegas}
	for _, t := range m.Trajectories {
		if !t.IsMulti() {
			singles.Trajectories = append(singles.Trajectories, t)
		}
	}
	return 1 / (1 + float64(singles.Intersections()))
}

// report is the tail both flows share: the injected fault set's
// diagnosis with -inject, else the hold-out evaluation (plus the
// double-fault one with -double-faults), as text or as the -json
// envelope.
func report(ctx context.Context, s *repro.Session, dg *repro.Diagnoser, omegas []float64, fit float64, inject string, reject float64, doubles, jsonOut bool) error {
	var data []byte
	var err error
	switch {
	case inject != "":
		var set repro.FaultSet
		if set, err = fault.ParseSetID(inject); err != nil {
			return err
		}
		if !jsonOut {
			return printInjected(ctx, s, dg, omegas, set, reject)
		}
		data, err = diagnoseJSON(ctx, s, dg, omegas, fit, set, reject)
	case jsonOut:
		data, err = evaluateJSON(ctx, s, dg, omegas, fit, doubles)
	default:
		ev, dev, err := evaluate(ctx, s, dg, doubles)
		if err != nil {
			return err
		}
		printEvaluation(ev)
		if dev != nil {
			printDoubleEvaluation(dev)
		}
		return nil
	}
	if err != nil {
		return err
	}
	os.Stdout.Write(data)
	fmt.Println()
	return nil
}

// doubleHoldOutCap bounds the double-fault hold-out trial count: the
// full off-grid pair sweep grows quadratically and a capped prefix
// already measures naming accuracy.
const doubleHoldOutCap = 210

// evaluate runs the hold-out evaluation against dg and, when doubles is
// set, the double-fault one (off-grid pair injections) against the same
// map; dev is nil otherwise.
func evaluate(ctx context.Context, s *repro.Session, dg *repro.Diagnoser, doubles bool) (ev, dev *repro.Evaluation, err error) {
	ev, err = s.EvaluateSets(ctx, dg, fault.Sets(diagnosis.HoldOutTrials(s.Universe(), diagnosis.DefaultHoldOutDeviations())))
	if err != nil || !doubles {
		return ev, nil, err
	}
	trials, err := s.HoldOutDoubleFaults([]float64{-0.25, 0.25}, doubleHoldOutCap)
	if err != nil {
		return nil, nil, err
	}
	dev, err = s.EvaluateSets(ctx, dg, trials)
	return ev, dev, err
}

// printInjected diagnoses one injected fault set against dg and prints
// the human-readable verdict, followed by the probabilistic ranking
// when the session carries a tolerance model.
func printInjected(ctx context.Context, s *repro.Session, dg *repro.Diagnoser, omegas []float64, set repro.FaultSet, reject float64) error {
	res, err := dg.DiagnoseSet(s.Dictionary(), set)
	if err != nil {
		return err
	}
	fmt.Printf("injected: %s\n%s", set.ID(), res)
	if reject > 0 && res.Rejected(dg.Extent(), reject) {
		fmt.Printf("=> REJECTED as out-of-model at ratio %.3g (no modeled fault explains the point)\n", reject)
		return nil
	}
	best := res.Best()
	status := "MISDIAGNOSED"
	if best.Key() == repro.FaultSetKey(set) {
		status = "correctly diagnosed"
	}
	if best.IsMulti() {
		parts := make([]string, len(best.Components))
		for i, c := range best.Components {
			parts[i] = fmt.Sprintf("%s%+.0f%%", c, best.Deviations[i]*100)
		}
		fmt.Printf("=> %s as double fault %s\n", status, strings.Join(parts, " + "))
		return nil
	}
	fmt.Printf("=> %s as %s (estimated deviation %+.0f%%)\n", status, best.Component, best.Deviation*100)
	return printProb(ctx, s, dg, omegas, res)
}

// printProb renders the probabilistic ranking of an already-diagnosed
// point — a no-op for sessions without a tolerance model.
func printProb(ctx context.Context, s *repro.Session, dg *repro.Diagnoser, omegas []float64, res *repro.DiagnosisResult) error {
	prob, err := probScore(ctx, s, dg, omegas, res)
	if err != nil || prob == nil {
		return err
	}
	tol, samples := s.Tolerance()
	fmt.Printf("probabilistic diagnosis (sigma %.3g, %d samples): confidence %.1f%%\n",
		tol.Sigma, samples, 100*prob.Confidence)
	top := prob.Candidates
	if len(top) > 3 {
		top = top[:3]
	}
	for i, c := range top {
		fmt.Printf("  %d. %-12s p = %.3f  (log-likelihood %.2f)\n", i+1, c.Key, c.Probability, c.LogLikelihood)
	}
	if len(prob.AmbiguityGroup) > 0 {
		fmt.Printf("  ambiguity group: %s\n", strings.Join(prob.AmbiguityGroup, ", "))
	}
	return nil
}

// probScore builds the session's signature-cloud model and scores the
// diagnosed point against it. Sessions without WithTolerance (no
// -mc-samples) return nil without work.
func probScore(ctx context.Context, s *repro.Session, dg *repro.Diagnoser, omegas []float64, res *repro.DiagnosisResult) (*repro.ProbabilisticResult, error) {
	if _, samples := s.Tolerance(); samples == 0 {
		return nil, nil
	}
	cs, err := s.Clouds(ctx, omegas)
	if err != nil {
		return nil, err
	}
	return s.DiagnoseProbabilistic(dg, cs, []float64(res.Point))
}

func printEvaluation(ev *repro.Evaluation) {
	fmt.Printf("hold-out evaluation (±15/25/35%% on every target):\n")
	fmt.Printf("  top-1 accuracy: %.1f%%   top-2: %.1f%%   mean deviation error: %.1f%%\n",
		100*ev.Accuracy(), 100*ev.TopTwoAccuracy(), 100*ev.MeanDevError)
	fmt.Printf("confusion matrix:\n%s", ev.ConfusionTable())
}

func printDoubleEvaluation(ev *repro.Evaluation) {
	fmt.Printf("double-fault hold-out evaluation (±25%% pair injections, %d trials):\n", ev.Total)
	fmt.Printf("  top-1 accuracy: %.1f%%   top-2: %.1f%%   mean deviation error: %.1f%%\n",
		100*ev.Accuracy(), 100*ev.TopTwoAccuracy(), 100*ev.MeanDevError)
}

func buildSession(cutName, nlPath, source, output string, opts ...repro.Option) (*repro.Session, error) {
	if nlPath != "" {
		text, err := os.ReadFile(nlPath)
		if err != nil {
			return nil, err
		}
		return repro.NewSessionFromNetlist(string(text), source, output, opts...)
	}
	cut, err := repro.BenchmarkByName(cutName)
	if err != nil {
		return nil, err
	}
	return repro.NewSession(cut, opts...)
}

// parseTestFreqs parses -freqs as a test vector: ParseFrequencies' rules
// plus ω > 0, since trajectories live on log-ω axes. Only -export's
// dictionary grid may hold ω = 0 (DC).
func parseTestFreqs(arg string) ([]float64, error) {
	freqs, err := repro.ParseFrequencies(arg)
	if err == nil && slices.Contains(freqs, 0) {
		err = fmt.Errorf("%w: a test vector needs ω > 0, got 0 (DC)", repro.ErrBadConfig)
	}
	if err != nil {
		return nil, fmt.Errorf("-freqs: %w", err)
	}
	return freqs, nil
}

func chooseFrequencies(ctx context.Context, s *repro.Session, freqsArg string, seed int64, full, quiet bool) ([]float64, error) {
	if freqsArg != "" {
		return parseTestFreqs(freqsArg)
	}
	cfg := repro.PaperOptimizeConfig(s.CUT().Omega0)
	cfg.Seed = seed
	if !full {
		cfg.GA.PopSize = 32
		cfg.GA.Generations = 10
	}
	tv, err := s.Optimize(ctx, cfg)
	if err != nil {
		return nil, err
	}
	if !quiet {
		fmt.Printf("GA: %d evaluations, best fitness %.4f, I = %d\n", tv.Evaluations, tv.Fitness, tv.Intersections)
	}
	return tv.Omegas, nil
}

// diagReport is the machine-readable payload ftdiag -json wraps in the
// versioned artifact envelope.
type diagReport struct {
	Circuit  string                 `json:"circuit"`
	Omegas   []float64              `json:"omegas"`
	Fitness  float64                `json:"fitness"`
	Injected string                 `json:"injected,omitempty"`
	Rejected *bool                  `json:"rejected,omitempty"`
	Result   *repro.DiagnosisResult `json:"result,omitempty"`
	// Probabilistic fields, present when the session carries a
	// tolerance model (-tolerance/-mc-samples).
	Confidence     *float64                       `json:"confidence,omitempty"`
	Likelihoods    []repro.ProbabilisticCandidate `json:"likelihoods,omitempty"`
	AmbiguityGroup []string                       `json:"ambiguity_group,omitempty"`
	Eval           *repro.Evaluation              `json:"evaluation,omitempty"`
	DoubleEval     *repro.Evaluation              `json:"double_evaluation,omitempty"`
}

// diagnoseJSON runs the injected-fault diagnosis (single or multiple)
// against dg and renders the envelope.
func diagnoseJSON(ctx context.Context, s *repro.Session, dg *repro.Diagnoser, omegas []float64, fit float64, set repro.FaultSet, rejectRatio float64) ([]byte, error) {
	res, err := dg.DiagnoseSet(s.Dictionary(), set)
	if err != nil {
		return nil, err
	}
	rep := diagReport{
		Circuit:  s.CUT().Circuit.Name(),
		Omegas:   omegas,
		Fitness:  fit,
		Injected: set.ID(),
		Result:   res,
	}
	if rejectRatio > 0 {
		rejected := res.Rejected(dg.Extent(), rejectRatio)
		rep.Rejected = &rejected
	}
	prob, err := probScore(ctx, s, dg, omegas, res)
	if err != nil {
		return nil, err
	}
	if prob != nil {
		conf := prob.Confidence
		rep.Confidence = &conf
		rep.Likelihoods = prob.Candidates
		rep.AmbiguityGroup = prob.AmbiguityGroup
	}
	return s.EncodeArtifact(repro.KindDiagnosisReport, rep)
}

// evaluateJSON runs the hold-out evaluation (plus the double-fault one
// when requested) against dg and renders the envelope.
func evaluateJSON(ctx context.Context, s *repro.Session, dg *repro.Diagnoser, omegas []float64, fit float64, doubles bool) ([]byte, error) {
	ev, dev, err := evaluate(ctx, s, dg, doubles)
	if err != nil {
		return nil, err
	}
	return s.EncodeArtifact(repro.KindDiagnosisReport, diagReport{
		Circuit:    s.CUT().Circuit.Name(),
		Omegas:     omegas,
		Fitness:    fit,
		Eval:       ev,
		DoubleEval: dev,
	})
}

func joinFloats(x []float64) string {
	parts := make([]string, len(x))
	for i, v := range x {
		parts[i] = strconv.FormatFloat(v, 'g', 5, 64)
	}
	return strings.Join(parts, ", ")
}

// exportDictionary persists the fault dictionary over a two-decade grid
// around the CUT's characteristic frequency as a versioned artifact.
// Extra frequencies (an intended test vector) are merged into the grid
// so later loads at those frequencies are exact, not interpolated.
func exportDictionary(ctx context.Context, s *repro.Session, path string, extra []float64) error {
	omega0 := s.CUT().Omega0
	grid := numeric.Logspace(omega0/100, omega0*100, 25)
	grid = append(grid, extra...)
	sort.Float64s(grid)
	uniq := grid[:0]
	for i, w := range grid {
		if i == 0 || w != uniq[len(uniq)-1] {
			uniq = append(uniq, w)
		}
	}
	return s.SaveDictionary(ctx, path, uniq)
}

// writeTrace dumps the collected spans as the -trace JSON file.
func writeTrace(path string, tr *repro.Tracer) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := tr.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "ftdiag:", err)
	os.Exit(1)
}
