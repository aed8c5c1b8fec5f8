// Package repro is the public API of the fault-trajectory analog fault
// diagnosis library, a reproduction of "Fault-Trajectory Approach for
// Fault Diagnosis on Analog Circuits" (Savioli, Szendrodi, Calvano,
// Mesquita; DATE 2005).
//
// The workflow mirrors the paper:
//
//  1. Pick (or parse) a circuit under test — see Benchmarks and
//     ParseNetlist.
//  2. Open a Session: it runs the fault simulation and produces the
//     fault dictionary over a parametric fault universe
//     (±10%…±40% deviations by default, per the paper).
//  3. Optimize a test vector — a small set of stimulus frequencies —
//     with the paper's GA (fitness 1/(1+I), I = fault-trajectory
//     intersections).
//  4. Diagnose observed responses: an unknown fault maps to a point in
//     the trajectory plane and is assigned to the nearest trajectory by
//     perpendicular projection.
//
// Minimal use (v2 API):
//
//	cut := repro.PaperCUT()
//	s, err := repro.NewSession(cut)
//	tv, err := s.Optimize(ctx, repro.PaperOptimizeConfig(cut.Omega0))
//	diag, err := s.Diagnoser(ctx, tv.Omegas)
//	res, err := diag.DiagnoseFault(s.Dictionary(), repro.Fault{Component: "R3", Deviation: 0.25})
//
// Every long-running stage takes a context.Context and stops within one
// GA generation / frequency batch of cancellation, returning an error
// that wraps ErrCanceled. Sessions accept functional options
// (WithDeviations, WithWorkers, WithProgress, …), stream Progress
// events, return structured errors (ErrBadConfig, ErrSingular,
// ErrUnknownComponent, …), and persist their expensive artifacts —
// dictionary grids, test vectors, trajectory maps — as versioned,
// checksummed JSON (SaveDictionary / SaveTestVector / SaveTrajectories
// and the matching Load functions).
package repro

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/core"
	"repro/internal/diagnosis"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/ga"
	"repro/internal/netlist"
	"repro/internal/numeric"
	"repro/internal/obs"
	"repro/internal/opamp"
	"repro/internal/probdiag"
	"repro/internal/trajectory"
)

// Re-exported types: the library's user-facing vocabulary.
type (
	// CUT is a circuit under test with measurement metadata.
	CUT = circuits.CUT
	// Circuit is a lumped linear analog network.
	Circuit = circuit.Circuit
	// Fault is a single parametric deviation of one component.
	Fault = fault.Fault
	// Universe is the set of faults the dictionary covers.
	Universe = fault.Universe
	// TestVector is an optimized set of test frequencies.
	TestVector = core.TestVector
	// OptimizeConfig drives GA test-vector optimization.
	OptimizeConfig = core.Config
	// GAConfig holds the genetic-algorithm hyperparameters.
	GAConfig = ga.Config
	// Diagnoser classifies observed response points.
	Diagnoser = diagnosis.Diagnoser
	// DiagnosisResult is a ranked component diagnosis.
	DiagnosisResult = diagnosis.Result
	// Evaluation aggregates diagnosis accuracy over trials.
	Evaluation = diagnosis.Evaluation
	// TrajectoryMap is the set of component fault trajectories for one
	// test vector.
	TrajectoryMap = trajectory.Map
	// Dictionary serves golden and faulty AC responses.
	Dictionary = dictionary.Dictionary
	// MultiFault is a simultaneous multiple parametric fault. Sessions
	// opened WithDoubleFaults diagnose these by name; other sessions can
	// only reject them as out-of-model.
	MultiFault = fault.Multi
	// FaultSet is the abstraction over fault hypotheses — golden, Fault,
	// or MultiFault — with stable IDs (ParseFaultSetID inverts them).
	FaultSet = fault.Set
	// DiagnosisCandidate is one ranked fault hypothesis of a diagnosis
	// (single component, or a named multi-fault component set).
	DiagnosisCandidate = diagnosis.Candidate
	// Tolerance models manufacturing spread on every component.
	Tolerance = fault.Tolerance
	// SignatureClouds is the Monte-Carlo probabilistic diagnosis model:
	// one signature distribution (mean + variance per frequency) per
	// fault hypothesis, with precomputed ambiguity groups. Built by
	// Session.Clouds, persisted by SaveClouds/LoadClouds, scored by
	// DiagnoseProbabilistic.
	SignatureClouds = probdiag.CloudSet
	// SignatureCloud is one fault set's signature distribution.
	SignatureCloud = probdiag.Cloud
	// ProbabilisticResult is a likelihood-ranked diagnosis with
	// posterior probabilities, confidence, and ambiguity group.
	ProbabilisticResult = diagnosis.ProbResult
	// ProbabilisticCandidate is one ranked hypothesis of a
	// ProbabilisticResult.
	ProbabilisticCandidate = diagnosis.ProbCandidate
	// Rational is a fitted transfer function N(s)/D(s).
	Rational = numeric.Rational
	// Tracer collects timing spans from a session's stages and the
	// engine's per-frequency fault-set work. Install one with WithTracer;
	// a nil Tracer is the no-op default and costs the hot paths nothing.
	Tracer = obs.Tracer
	// TraceSpan is one finished span of a Tracer (name, start offset and
	// duration in milliseconds).
	TraceSpan = obs.Span
)

// PaperCUT returns the stand-in for the paper's circuit under test: a
// normalized negative-feedback low-pass filter with exactly seven
// passive components (circuits.NFLowpass7's doc comment gives the
// rationale: seven passives with separable trajectories).
func PaperCUT() CUT { return circuits.NFLowpass7() }

// PaperCUTMacro returns the paper CUT with the opamp replaced by the
// FFM-style macromodel (moderate parameters: A0 = 10⁴, pole at
// 10 rad/s) and the macromodel's four elements appended to the fault
// targets — the active-device fault setup of experiment E12.
func PaperCUTMacro() (CUT, error) {
	cut, err := circuits.NFLowpass7Macro(opamp.Params{A0: 1e4, GBW: 1e5, Rin: 1e6, Rout: 1})
	if err != nil {
		return CUT{}, err
	}
	cut.Passives = append(append([]string(nil), cut.Passives...),
		"U1.E", "U1.Cp", "U1.Rin", "U1.Rout")
	return cut, nil
}

// Benchmarks returns every built-in circuit under test.
func Benchmarks() []CUT { return circuits.All() }

// ScalingBenchmarks returns the parameterized scaling CUT tier at
// representative sizes (RC ladders and op-amp-macro filter cascades up
// to hundreds of MNA unknowns) — the workload of the sparse golden
// engine. Arbitrary sizes are reachable through BenchmarkByName.
func ScalingBenchmarks() []CUT { return circuits.Scaling() }

// BenchmarkFamilies lists the parameterized CUT name patterns
// BenchmarkByName accepts beyond the fixed set, e.g. "rc-ladder-<n>".
func BenchmarkFamilies() []string { return circuits.Families() }

// BenchmarkByName returns a built-in CUT by its circuit name — fixed
// names from Benchmarks, or parameterized family names like
// "rc-ladder-128" and "opamp-cascade-16".
func BenchmarkByName(name string) (CUT, error) { return circuits.ByName(name) }

// PaperDeviations returns the paper's fault grid: ±10%…±40% in 10%
// steps.
func PaperDeviations() []float64 { return fault.PaperDeviations() }

// PaperGAConfig returns the paper's §2.4 GA parameters (128 individuals,
// 15 generations, 50% reproduction, 40% mutation, roulette wheel).
func PaperGAConfig() GAConfig { return ga.PaperConfig() }

// PaperOptimizeConfig returns the paper's full optimization setup
// centered on a CUT's characteristic frequency.
func PaperOptimizeConfig(omega0 float64) OptimizeConfig {
	return core.PaperOptimizeConfig(omega0)
}

// ParseNetlist parses SPICE-like netlist text into a Circuit (see the
// netlist card reference in the internal/netlist package docs). Syntax
// failures are ParseErrors carrying the source line and card text.
func ParseNetlist(text string) (*Circuit, error) { return netlist.Parse(text) }

// NewMultiFault builds a simultaneous multiple fault from its parts,
// validating that components are distinct and every deviation is a
// genuine, injectable one.
func NewMultiFault(parts ...Fault) (MultiFault, error) { return fault.NewMulti(parts...) }

// ParseFaultSetID parses a stable fault-set identifier — "golden",
// "R3@+25%", or "C1@-20%+R3@+30%" — back into the fault set, the format
// fault IDs render to and the CLI -inject flag accepts.
func ParseFaultSetID(id string) (FaultSet, error) { return fault.ParseSetID(id) }

// FaultSetKey returns the component-set identity of a fault set
// ("R3", "C1+R3", "golden"), the key DiagnosisCandidate.Key matches
// against when deciding whether a diagnosis named the injected fault.
func FaultSetKey(set FaultSet) string { return diagnosis.SetKey(set) }

// ParseFrequencies parses a comma-separated list of angular frequencies
// in rad/s ("0.56, 4.55") — the format the CLI -freqs flags accept.
// Every value must be finite and non-negative (ω = 0, DC, is valid),
// and no value may repeat: with ω₁ = ω₂ every signature lies on the
// diagonal and diagnosis cannot separate faults. Failures wrap
// ErrBadConfig.
func ParseFrequencies(s string) ([]float64, error) {
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, f := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(f), 64)
		if err != nil {
			return nil, fmt.Errorf("repro: %w: bad frequency %q", ErrBadConfig, f)
		}
		if p := frequencyProblem(v, out); p != "" {
			return nil, fmt.Errorf("repro: %w: frequency %q %s", ErrBadConfig, f, p)
		}
		out = append(out, v)
	}
	return out, nil
}

// frequencyProblem says what is wrong with v as the next frequency of a
// list whose earlier entries are prev, or returns "" when nothing is.
func frequencyProblem(v float64, prev []float64) string {
	if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
		return "must be finite and non-negative"
	}
	if slices.Contains(prev, v) {
		return "repeats an earlier one"
	}
	return ""
}

// NewTracer starts an empty trace for WithTracer. Collected spans are
// read back with Tracer.Spans or dumped with Tracer.WriteJSON (the
// format behind the CLI -trace flag).
func NewTracer() *Tracer { return obs.NewTracer() }

// SerializeNetlist renders a Circuit back to netlist text.
func SerializeNetlist(c *Circuit) (string, error) { return netlist.Serialize(c) }
