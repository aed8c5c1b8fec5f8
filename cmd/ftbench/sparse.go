package main

import (
	"encoding/json"
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/engine"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// sparseSizes is the measured scaling ladder: RC ladders across the
// dense→sparse crossover, two op-amp-macro cascades for a CUT whose
// pattern is not banded, and 2-D RC grids into the thousand-unknown
// tier where the frequency-blocked numeric phase is the story (the dense
// path is only timed below denseTimeableNodes — an n=4097 dense factor
// per frequency is not benchmarkable).
var sparseSizes = []string{
	"rc-ladder-16", "rc-ladder-32", "rc-ladder-64", "rc-ladder-128",
	"rc-ladder-256", "rc-ladder-512",
	"opamp-cascade-8", "opamp-cascade-32",
	"rc-grid-16", "rc-grid-32", "rc-grid-45", "rc-grid-64",
}

// denseTimeableNodes bounds the engine-level dense-vs-sparse comparison:
// above it the dense O(n³)-per-frequency grid build would dominate the
// whole benchmark run, so those entries carry numeric-phase measurements
// only (DenseNsPerOp = 0, Speedup = 0).
const denseTimeableNodes = 600

// The two size tiers the sparse engine's claims are held at.
const (
	// bigNodes is where sparse must win: from 256 unknowns the auto
	// heuristic picks sparse, sparse beats dense ≥5× wherever dense was
	// timed, and the measured crossover lies at or below it.
	bigNodes = 256
	// hugeNodes is the thousand-node tier of the frequency-blocked
	// numeric phase.
	hugeNodes = 2000
)

// sparseEntry is one CUT's sparse-engine measurement: the dense-vs-
// sparse grid build (small CUTs), plus the numeric-phase split —
// refactor cost vs solve cost per frequency, scalar vs frequency-blocked.
type sparseEntry struct {
	// CUT names the circuit under test ("rc-grid-45").
	CUT string `json:"cut"`
	// Nodes is the MNA system size (unknowns).
	Nodes int `json:"nodes"`
	// NNZ is the structural nonzero count of the golden pattern.
	NNZ int `json:"nnz"`
	// FactorPath is what the engine's auto heuristic picks for this CUT
	// ("dense" or "sparse") — the crossover is where this flips.
	FactorPath string `json:"factor_path"`
	// Faults and Omegas describe the timed grid.
	Faults int `json:"faults"`
	Omegas int `json:"omegas"`
	// DenseNsPerOp / SparseNsPerOp time one full grid build
	// (BatchResponsesSetsInto over the fault × frequency grid) with the
	// factor path forced each way. Dense is 0 above denseTimeableNodes.
	DenseNsPerOp  float64 `json:"dense_ns_per_op"`
	SparseNsPerOp float64 `json:"sparse_ns_per_op"`
	// DenseAllocsPerOp / SparseAllocsPerOp are heap allocations per grid
	// build in steady state.
	DenseAllocsPerOp  int64 `json:"dense_allocs_per_op"`
	SparseAllocsPerOp int64 `json:"sparse_allocs_per_op"`
	// Speedup is dense/sparse wall time (>1 = sparse wins; 0 when dense
	// was not timed).
	Speedup float64 `json:"speedup"`

	// Supernode structure of the compiled elimination schedule.
	Supernodes int `json:"supernodes"`
	MaxPanel   int `json:"max_panel"`
	// ScalarRefactorNsPerFreq / BlockedRefactorNsPerFreq split the
	// numeric phase out of the grid build: one golden refactorization per
	// frequency on the scalar up-looking walk vs the frequency-blocked
	// walk (one RefactorBlock / FreqBlock). NumericSpeedup is their
	// ratio, the quantity the numeric-phase floors hold at hugeNodes+
	// unknowns.
	ScalarRefactorNsPerFreq  float64 `json:"scalar_refactor_ns_per_freq"`
	BlockedRefactorNsPerFreq float64 `json:"blocked_refactor_ns_per_freq"`
	NumericSpeedup           float64 `json:"numeric_speedup"`
	// SolveNsPerFreq times the triangular solve pair on the factored
	// system — the non-refactor half of a frequency column.
	SolveNsPerFreq float64 `json:"solve_ns_per_freq"`

	// missing lists the sparseEntryKeys a decoded entry lacked.
	missing []string
}

// sparseEntryKeys are the keys every BENCH_sparse.json entry must carry.
var sparseEntryKeys = []string{
	"cut", "nodes", "nnz", "factor_path", "dense_ns_per_op", "sparse_ns_per_op",
	"speedup", "supernodes", "max_panel", "scalar_refactor_ns_per_freq",
	"blocked_refactor_ns_per_freq", "numeric_speedup", "solve_ns_per_freq",
}

// UnmarshalJSON decodes an entry and records which sparseEntryKeys it
// lacks: dense_ns_per_op and speedup are legitimately 0 above
// denseTimeableNodes, so only the raw JSON shows a deleted key.
func (e *sparseEntry) UnmarshalJSON(data []byte) error {
	type plain sparseEntry
	if err := json.Unmarshal(data, (*plain)(e)); err != nil {
		return err
	}
	var err error
	e.missing, err = missingKeys(data, sparseEntryKeys...)
	return err
}

// sparseReport is the BENCH_sparse.json schema.
type sparseReport struct {
	benchEnvelope
	// CrossoverNodes is the system size of the smallest measured CUT
	// where the sparse path beat the dense path (0 if none did).
	CrossoverNodes int           `json:"crossover_nodes"`
	Entries        []sparseEntry `json:"entries"`
}

// entry returns the named CUT's entry, or nil.
func (rep *sparseReport) entry(cut string) *sparseEntry {
	for i := range rep.Entries {
		if rep.Entries[i].CUT == cut {
			return &rep.Entries[i]
		}
	}
	return nil
}

// check holds the report's machine-independent invariants: every entry
// is complete and self-consistent; sparse takes over by bigNodes
// unknowns and wins there ≥5× wherever dense was timed; the
// frequency-blocked numeric phase never collapses below 2× over the
// scalar walk at hugeNodes+ unknowns; and each tier has two CUTs.
func (rep *sparseReport) check() error {
	var v violations
	if rep.CrossoverNodes <= 0 || rep.CrossoverNodes > bigNodes {
		v.add("crossover at %d unknowns, want within (0, %d]", rep.CrossoverNodes, bigNodes)
	}
	var big, huge int
	for _, e := range rep.Entries {
		if len(e.missing) > 0 {
			v.add("%s: missing keys %s", e.CUT, strings.Join(e.missing, ", "))
		}
		if e.Nodes <= 0 || e.NNZ <= 0 {
			v.add("%s: %d unknowns and %d nonzeros, want both > 0", e.CUT, e.Nodes, e.NNZ)
		}
		if e.FactorPath != "dense" && e.FactorPath != "sparse" {
			v.add("%s: factor_path %q, want dense or sparse", e.CUT, e.FactorPath)
		}
		if e.Supernodes < 1 || e.Supernodes > e.Nodes {
			v.add("%s: %d supernodes, want within [1, %d]", e.CUT, e.Supernodes, e.Nodes)
		}
		if e.NumericSpeedup <= 0 {
			v.add("%s: numeric phase not measured", e.CUT)
		}
		if e.Nodes >= bigNodes {
			big++
			if e.FactorPath != "sparse" {
				v.add("%s: auto heuristic picked %s at %d unknowns", e.CUT, e.FactorPath, e.Nodes)
			}
			if e.DenseNsPerOp > 0 && e.Speedup < 5 {
				v.add("%s (%d unknowns): sparse speedup %.1f×, want ≥5×", e.CUT, e.Nodes, e.Speedup)
			}
		}
		if e.Nodes >= hugeNodes {
			huge++
			if e.NumericSpeedup < 2 {
				v.add("%s (%d unknowns): blocked numeric phase %.2f× over scalar, below the 2× collapse floor",
					e.CUT, e.Nodes, e.NumericSpeedup)
			}
		}
	}
	if big < 2 {
		v.add("%d CUTs with %d+ unknowns, want at least two", big, bigNodes)
	}
	if huge < 2 {
		v.add("%d CUTs with %d+ unknowns, want at least two", huge, hugeNodes)
	}
	return v.err("sparse report")
}

// sparse measures golden grid builds dense vs sparse over the scaling
// CUT tier, splits the numeric phase (scalar vs frequency-blocked
// refactorization, solve cost), and writes BENCH_sparse.json. Every
// timed comparison is cross-checked to 1e-9 relative agreement before
// anything is timed, so the recorded speedups are between verified-equal
// answers.
func (r *runner) sparse() error {
	path := r.reportPath("sparse")
	r.header("SPARSE", "dense vs sparse golden grid builds → "+path)
	rep := &sparseReport{benchEnvelope: newBenchEnvelope(r.date)}
	r.printf("  %-16s %6s %8s %5s %12s %12s %7s %12s %12s %8s\n",
		"cut", "nodes", "nnz", "sn", "dense ns/op", "sparse ns/op", "spdup",
		"scalar ns/f", "blocked ns/f", "numeric")

	for _, name := range sparseSizes {
		e, err := r.sparseOne(name)
		if err != nil {
			return fmt.Errorf("sparse: %s: %w", name, err)
		}
		rep.Entries = append(rep.Entries, *e)
		r.printf("  %-16s %6d %8d %5d %12.0f %12.0f %6.1f× %12.0f %12.0f %7.2f×\n",
			e.CUT, e.Nodes, e.NNZ, e.Supernodes, e.DenseNsPerOp, e.SparseNsPerOp, e.Speedup,
			e.ScalarRefactorNsPerFreq, e.BlockedRefactorNsPerFreq, e.NumericSpeedup)
	}

	for _, e := range rep.Entries {
		if e.Speedup > 1 && (rep.CrossoverNodes == 0 || e.Nodes < rep.CrossoverNodes) {
			rep.CrossoverNodes = e.Nodes
		}
	}
	if rep.CrossoverNodes > 0 {
		r.printf("  crossover: sparse wins from %d unknowns\n", rep.CrossoverNodes)
	} else {
		r.printf("  crossover: sparse never won on this machine\n")
	}

	if err := r.writeReport(path, rep); err != nil {
		return fmt.Errorf("sparse: %w", err)
	}
	if r.gate != "" {
		return r.gateSparse(rep)
	}
	return nil
}

// benchMinNs runs fn under testing.Benchmark for three rounds and
// returns the minimum ns/op — the standard noise-floor estimator for a
// loaded runner.
func (r *runner) benchMinNs(fn func(b *testing.B)) (float64, int64, error) {
	var ns float64
	var allocs int64
	for round := 0; round < 3; round++ {
		res := testing.Benchmark(fn)
		if err := r.ctx.Err(); err != nil {
			return 0, 0, err
		}
		if res.N == 0 {
			return 0, 0, fmt.Errorf("benchmark failed (see log above)")
		}
		n := float64(res.T.Nanoseconds()) / float64(res.N)
		if round == 0 || n < ns {
			ns, allocs = n, res.AllocsPerOp()
		}
	}
	return ns, allocs, nil
}

// benchMinNsPaired times two benchmark bodies in interleaved rounds
// (a, b, a, b, ...) and returns each one's minimum ns/op. Use it
// whenever the quantity that matters is the *ratio* of the two: on a
// shared runner the machine's effective throughput drifts on a
// seconds-to-minutes scale, and timing the two sides back-to-back
// within each round makes that drift hit both numerator and
// denominator instead of landing between two separately-timed phases.
func (r *runner) benchMinNsPaired(fa, fb func(b *testing.B)) (nsA, nsB float64, err error) {
	for round := 0; round < 3; round++ {
		for side, fn := range []func(b *testing.B){fa, fb} {
			res := testing.Benchmark(fn)
			if err := r.ctx.Err(); err != nil {
				return 0, 0, err
			}
			if res.N == 0 {
				return 0, 0, fmt.Errorf("benchmark failed (see log above)")
			}
			n := float64(res.T.Nanoseconds()) / float64(res.N)
			if side == 0 && (round == 0 || n < nsA) {
				nsA = n
			}
			if side == 1 && (round == 0 || n < nsB) {
				nsB = n
			}
		}
	}
	return nsA, nsB, nil
}

// sparseOne cross-checks and times one CUT: the engine-level grid build
// (dense timed only below denseTimeableNodes) and the isolated
// numeric-phase measurements.
func (r *runner) sparseOne(name string) (*sparseEntry, error) {
	cut, err := circuits.ByName(name)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		return nil, err
	}
	sym := eng.Template().SparsePattern()
	if sym == nil {
		return nil, fmt.Errorf("no sparse pattern compiled")
	}

	// The timed grid: a bounded single-fault slice (every k-th passive at
	// ±30%) over three frequencies around ω₀ — large enough that the
	// block solve matters, small enough that the n=512 dense build stays
	// benchmarkable.
	stride := 1
	if len(cut.Passives) > 32 {
		stride = len(cut.Passives) / 32
	}
	var sets []fault.Set
	for i := 0; i < len(cut.Passives); i += stride {
		for _, dev := range []float64{-0.3, 0.3} {
			sets = append(sets, fault.Fault{Component: cut.Passives[i], Deviation: dev})
		}
	}
	// Enough frequencies that the per-frequency factor+solve dominates
	// the batch's fixed scheduling overhead — the quantity the sparse
	// path actually changes.
	omegas := numeric.Logspace(cut.Omega0/10, cut.Omega0*10, 9)

	check := func(got, ref *engine.Batch, peak float64, tag string) error {
		for i := range sets {
			for j := range omegas {
				a, b := got.Mags[i][j], ref.Mags[i][j]
				scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), 1e-3*peak)
				if math.Abs(a-b)/scale > 1e-9 {
					return fmt.Errorf("%s: %s at ω=%g: %.15g vs %.15g",
						tag, sets[i].ID(), omegas[j], a, b)
				}
			}
		}
		return nil
	}

	// Cross-check before timing: the sparse golden row vs the scalar
	// sparse walk always; the whole grid vs the dense path when dense is
	// tractable.
	eng.SetFactorPath(engine.FactorSparse)
	got, err := eng.BatchResponsesSets(r.ctx, sets, omegas, 1)
	if err != nil {
		return nil, err
	}
	var peak float64
	for _, g := range got.Golden {
		peak = math.Max(peak, g)
	}
	if err := checkGoldenScalar(eng, got, peak); err != nil {
		return nil, err
	}
	e := &sparseEntry{
		CUT:        name,
		Nodes:      eng.Nodes(),
		NNZ:        eng.NNZ(),
		Faults:     len(sets),
		Omegas:     len(omegas),
		Supernodes: sym.Supernodes(),
		MaxPanel:   sym.MaxPanel(),
	}
	if e.Nodes <= denseTimeableNodes {
		eng.SetFactorPath(engine.FactorDense)
		refDense, err := eng.BatchResponsesSets(r.ctx, sets, omegas, 1)
		if err != nil {
			return nil, err
		}
		if err := check(got, refDense, peak, "sparse vs dense"); err != nil {
			return nil, err
		}
	}

	var out engine.Batch
	gridBuild := func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := eng.BatchResponsesSetsInto(r.ctx, sets, omegas, 1, &out); err != nil {
				b.Fatal(err)
			}
		}
	}
	if e.Nodes <= denseTimeableNodes {
		eng.SetFactorPath(engine.FactorDense)
		if e.DenseNsPerOp, e.DenseAllocsPerOp, err = r.benchMinNs(gridBuild); err != nil {
			return nil, err
		}
	}
	eng.SetFactorPath(engine.FactorSparse)
	if e.SparseNsPerOp, e.SparseAllocsPerOp, err = r.benchMinNs(gridBuild); err != nil {
		return nil, err
	}
	if e.DenseNsPerOp > 0 && e.SparseNsPerOp > 0 {
		e.Speedup = e.DenseNsPerOp / e.SparseNsPerOp
	}

	if err := r.sparseNumericPhase(eng, e, cut.Omega0); err != nil {
		return nil, err
	}

	eng.SetFactorPath(engine.FactorAuto)
	e.FactorPath = eng.FactorPathName()
	return e, nil
}

// checkGoldenScalar recomputes every golden column of got on the scalar
// sparse walk — Template.StampSparse, SparseLU.RefactorReuse, SolveInto —
// and requires |x_out / source amplitude| to match got.Golden to 1e-9
// relative. It is the engine-level check on CUTs too large for the dense
// comparison.
func checkGoldenScalar(eng *engine.Engine, got *engine.Batch, peak float64) error {
	tm := eng.Template()
	sym := tm.SparsePattern()
	outIdx, err := tm.System().NodeIndex(eng.Output())
	if err != nil {
		return err
	}
	re := make([]float64, sym.LUNNZ())
	im := make([]float64, sym.LUNNZ())
	x := make([]complex128, sym.N())
	var lu numeric.SparseLU
	for j, w := range got.Omegas {
		if err := tm.StampSparse(re, im, w); err != nil {
			return err
		}
		if err := lu.RefactorReuse(sym, re, im); err != nil {
			return fmt.Errorf("scalar sparse golden at ω=%g: %w", w, err)
		}
		if err := lu.SolveInto(x, tm.RHS()); err != nil {
			return err
		}
		var want float64
		if outIdx >= 0 {
			want = cmplx.Abs(x[outIdx]) / eng.SourceAmplitude()
		}
		a := got.Golden[j]
		if scale := math.Max(math.Max(a, want), 1e-3*peak); math.Abs(a-want)/scale > 1e-9 {
			return fmt.Errorf("golden vs scalar sparse at ω=%g: %.15g vs %.15g", w, a, want)
		}
	}
	return nil
}

// sparseNumericPhase isolates the golden refactorization from the
// solves: it stamps FreqBlock frequency value planes once, cross-checks
// the frequency-blocked factorization against the scalar walk through
// their triangular solves, then times each numeric-phase variant and the
// solve separately.
func (r *runner) sparseNumericPhase(eng *engine.Engine, e *sparseEntry, omega0 float64) error {
	tm := eng.Template()
	sym := tm.SparsePattern()
	lnnz := sym.LUNNZ()
	n := sym.N()

	var res, ims [numeric.FreqBlock][]float64
	freqs := numeric.Logspace(omega0/4, omega0*4, numeric.FreqBlock)
	for f := 0; f < numeric.FreqBlock; f++ {
		res[f] = make([]float64, lnnz)
		ims[f] = make([]float64, lnnz)
		if err := tm.StampSparse(res[f], ims[f], freqs[f]); err != nil {
			return err
		}
	}
	rhs := tm.RHS()
	xa := make([]complex128, n)
	xb := make([]complex128, n)
	compareSolves := func(a, b *numeric.SparseLU, tag string) error {
		if err := a.SolveInto(xa, rhs); err != nil {
			return err
		}
		if err := b.SolveInto(xb, rhs); err != nil {
			return err
		}
		var peak float64
		for i := range xa {
			peak = math.Max(peak, math.Max(math.Abs(real(xa[i])), math.Abs(imag(xa[i]))))
		}
		for i := range xa {
			d := xa[i] - xb[i]
			if math.Max(math.Abs(real(d)), math.Abs(imag(d))) > 1e-9*peak {
				return fmt.Errorf("%s: solutions diverge at unknown %d: %v vs %v", tag, i, xa[i], xb[i])
			}
		}
		return nil
	}

	// Cross-check: blocked planes against the scalar walk, each through a
	// full triangular solve.
	var scalar numeric.SparseLU
	var blk [numeric.FreqBlock]numeric.SparseLU
	var bref numeric.BlockRefactorer
	errs := bref.RefactorBlock(sym, &blk, &res, &ims)
	for f := 0; f < numeric.FreqBlock; f++ {
		if errs[f] != nil {
			return fmt.Errorf("blocked refactor plane %d: %w", f, errs[f])
		}
		if err := scalar.RefactorReuse(sym, res[f], ims[f]); err != nil {
			return fmt.Errorf("scalar refactor plane %d: %w", f, err)
		}
		if err := compareSolves(&scalar, &blk[f], fmt.Sprintf("blocked plane %d vs scalar", f)); err != nil {
			return err
		}
	}

	// Timings: scalar walk per frequency, blocked walk per frequency
	// (one RefactorBlock covers FreqBlock frequencies), and the solve
	// pair. The scalar/blocked pair is timed in interleaved rounds
	// (benchMinNsPaired): both sides of the ratio must see the same
	// runner-contention regime, or NumericSpeedup swings with whatever
	// the host was doing between two separately-timed phases.
	scalarNs, blockNs, err := r.benchMinNsPaired(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := scalar.RefactorReuse(sym, res[i%numeric.FreqBlock], ims[i%numeric.FreqBlock]); err != nil {
				b.Fatal(err)
			}
		}
	}, func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			errs := bref.RefactorBlock(sym, &blk, &res, &ims)
			for f := range errs {
				if errs[f] != nil {
					b.Fatal(errs[f])
				}
			}
		}
	})
	if err != nil {
		return err
	}
	e.ScalarRefactorNsPerFreq = scalarNs
	e.BlockedRefactorNsPerFreq = blockNs / numeric.FreqBlock
	if e.BlockedRefactorNsPerFreq > 0 {
		e.NumericSpeedup = e.ScalarRefactorNsPerFreq / e.BlockedRefactorNsPerFreq
	}
	if e.SolveNsPerFreq, _, err = r.benchMinNs(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if err := scalar.SolveInto(xa, rhs); err != nil {
				b.Fatal(err)
			}
		}
	}); err != nil {
		return err
	}
	return nil
}

// gateSparse holds the fresh report to its invariants (check) and to
// the baseline named by -gate. Against the baseline it fails when:
//
//   - a CUT of the baseline is missing from the new report;
//   - a bigNodes+ CUT's dense/sparse speedup fell more than -gate-tol
//     below its baseline speedup — the ratio is what the sparse engine
//     buys, and unlike absolute ns/op it carries across runner classes,
//     so the checked-in report works as a cross-machine baseline.
//     Smaller CUTs are informational only: their sub-ms grid builds are
//     dominated by fixed batch overhead and runner noise, and the
//     engine's auto heuristic is what protects them;
//   - the frequency-blocked numeric phase fell more than -gate-tol below
//     its baseline blocked-vs-scalar ratio at hugeNodes+ unknowns. The
//     ≥3× numeric-phase acceptance floor is held by the checked-in record
//     only (TestCheckedInReports): the honest blocked-vs-scalar ratio
//     hugs 3× at this tier, so an absolute 3× floor on a fresh noisy run
//     would be flaky in a way the baseline-relative check is not.
func (r *runner) gateSparse(rep *sparseReport) error {
	var base sparseReport
	if err := readReport(r.gate, &base); err != nil {
		return fmt.Errorf("sparse gate: %w", err)
	}
	var v violations
	for i := range base.Entries {
		b := &base.Entries[i]
		n := rep.entry(b.CUT)
		if n == nil {
			v.add("%s missing from new report", b.CUT)
			continue
		}
		status := "info"
		if b.Nodes >= bigNodes && b.DenseNsPerOp > 0 {
			status = "ok"
			if n.Speedup < (1-r.gateTol)*b.Speedup {
				status = "FAIL"
				v.add("%s speedup collapsed %.1f× → %.1f× (tol %.0f%%)",
					b.CUT, b.Speedup, n.Speedup, r.gateTol*100)
			}
		}
		if b.Nodes >= hugeNodes && b.NumericSpeedup > 0 {
			if status == "info" {
				status = "ok"
			}
			if n.NumericSpeedup < (1-r.gateTol)*b.NumericSpeedup {
				status = "FAIL"
				v.add("%s numeric speedup collapsed %.2f× → %.2f× (tol %.0f%%)",
					b.CUT, b.NumericSpeedup, n.NumericSpeedup, r.gateTol*100)
			}
		}
		r.printf("  gate %-16s speedup %5.1f× → %5.1f×  numeric %5.2f× → %5.2f×  (tol %.0f%%)  %s\n",
			b.CUT, b.Speedup, n.Speedup, b.NumericSpeedup, n.NumericSpeedup, r.gateTol*100, status)
	}
	if err := rep.check(); err != nil {
		v.add("%v", err)
	}
	if err := v.err("sparse gate"); err != nil {
		return err
	}
	r.printf("  gate passed against %s\n", r.gate)
	return nil
}
