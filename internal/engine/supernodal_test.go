package engine

import (
	"fmt"
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// This file pins the sparse numeric-phase wiring: frequency groups
// refactored by numeric.BlockRefactorer (padded when short) against the
// dense path and the full-LU reference, the partial-refactorization
// exact fallback (counter-asserted — no dense work), and bit-identity of
// the group decomposition across worker counts.

// TestSupernodalThreeWayEquivalence is the sparse acceptance pin on the
// rc-grid and rc-ladder families, three ways: batches of 1, 2, 3, 5 and
// 9 frequencies — every group shape, padded or full — on the sparse path
// must match the dense path to 1e-9 relative over single and double
// faults, match the full-LU reference (analysis.AC of the faulted clone)
// on a sample of items,
// and be bit-identical at worker counts {1, 2, 4}. Every sparse golden
// column must be refactored by the blocked walk: the SupernodalRefactors
// delta of each batch equals its column count.
func TestSupernodalThreeWayEquivalence(t *testing.T) {
	grid, err := circuits.RCGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	lad, err := circuits.RCLadder(64)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []circuits.CUT{grid, lad} {
		cut := cut
		t.Run(cut.Circuit.Name(), func(t *testing.T) {
			eng, err := New(cut.Circuit, cut.Source, cut.Output)
			if err != nil {
				t.Fatal(err)
			}
			singles := paperSingles(t, cut)
			pairs, err := mustUniverse(t, cut).Pairs([]float64{-0.5, 0.5}, 24)
			if err != nil {
				t.Fatal(err)
			}
			doubles := make([]fault.Set, len(pairs))
			for i, p := range pairs {
				doubles[i] = p
			}
			w0 := cut.Omega0
			all := []float64{w0 / 8, w0 / 4, w0 / 2, w0 * 0.8, w0, w0 * 1.3, w0 * 2, w0 * 4, w0 * 8}

			eng.SetFactorPath(FactorDense)
			refS, err := eng.BatchResponses(nil, singles, all, 1)
			if err != nil {
				t.Fatal(err)
			}
			refD, err := eng.BatchResponsesSets(nil, doubles, all, 1)
			if err != nil {
				t.Fatal(err)
			}
			var peak float64
			for _, g := range refS.Golden {
				if g > peak {
					peak = g
				}
			}
			floor := 1e-3 * peak
			// The full-LU reference on every 17th single and every 5th
			// double (items 0 — the golden and the first pair — included).
			exactS := map[int][]float64{}
			for i := 0; i < len(singles); i += 17 {
				exactS[i] = acResponses(t, cut, singles[i], all)
			}
			exactD := map[int][]float64{}
			for i := 0; i < len(doubles); i += 5 {
				exactD[i] = acResponses(t, cut, doubles[i], all)
			}

			eng.SetFactorPath(FactorSparse)
			for _, m := range []int{1, 2, 3, 5, 9} {
				omegas := all[:m]
				var baseS, baseD *Batch
				for _, workers := range []int{1, 2, 4} {
					tag := fmt.Sprintf("%d freqs, workers=%d", m, workers)
					before := eng.Stats().SupernodalRefactors
					gotS, err := eng.BatchResponses(nil, singles, omegas, workers)
					if err != nil {
						t.Fatal(err)
					}
					mid := eng.Stats().SupernodalRefactors
					gotD, err := eng.BatchResponsesSets(nil, doubles, omegas, workers)
					if err != nil {
						t.Fatal(err)
					}
					after := eng.Stats().SupernodalRefactors
					if mid-before != int64(m) || after-mid != int64(m) {
						t.Fatalf("%s: blocked golden refactors %d (singles) and %d (doubles), want %d each",
							tag, mid-before, after-mid, m)
					}
					if workers == 1 {
						checkBatch(t, tag+" vs dense", gotS, refS, floor)
						checkBatch(t, tag+" vs dense", gotD, refD, floor)
						checkExact(t, tag+" vs full LU", gotS, exactS, floor)
						checkExact(t, tag+" vs full LU", gotD, exactD, floor)
						baseS, baseD = gotS, gotD
						continue
					}
					checkBitIdentical(t, tag, gotS, baseS)
					checkBitIdentical(t, tag, gotD, baseD)
				}
			}
		})
	}
}

// checkBatch compares got against the leading columns of ref to 1e-9
// relative (with the notch-null noise floor).
func checkBatch(t *testing.T, tag string, got, ref *Batch, floor float64) {
	t.Helper()
	for j := range got.Omegas {
		if re := relErrFloor(got.Golden[j], ref.Golden[j], floor); re > 1e-9 {
			t.Fatalf("%s: golden ω=%g: %.15g vs %.15g (rel %.3g)", tag, got.Omegas[j], got.Golden[j], ref.Golden[j], re)
		}
		for i := range got.Mags {
			if re := relErrFloor(got.Mags[i][j], ref.Mags[i][j], floor); re > 1e-9 {
				t.Fatalf("%s: item %d ω=%g: %.15g vs %.15g (rel %.3g)", tag, i, got.Omegas[j], got.Mags[i][j], ref.Mags[i][j], re)
			}
		}
	}
}

// checkExact compares the sampled rows of got against their full-LU
// reference values to 1e-9 relative.
func checkExact(t *testing.T, tag string, got *Batch, exact map[int][]float64, floor float64) {
	t.Helper()
	for i, want := range exact {
		for j := range got.Omegas {
			if re := relErrFloor(got.Mags[i][j], want[j], floor); re > 1e-9 {
				t.Fatalf("%s: item %d ω=%g: %.15g vs %.15g (rel %.3g)", tag, i, got.Omegas[j], got.Mags[i][j], want[j], re)
			}
		}
	}
}

// checkBitIdentical requires got to equal base exactly.
func checkBitIdentical(t *testing.T, tag string, got, base *Batch) {
	t.Helper()
	for j := range got.Omegas {
		if got.Golden[j] != base.Golden[j] {
			t.Fatalf("%s: golden ω=%g: %.17g != %.17g (1 worker)", tag, got.Omegas[j], got.Golden[j], base.Golden[j])
		}
		for i := range got.Mags {
			if got.Mags[i][j] != base.Mags[i][j] {
				t.Fatalf("%s: item %d ω=%g: %.17g != %.17g (1 worker)", tag, i, got.Omegas[j], got.Mags[i][j], base.Mags[i][j])
			}
		}
	}
}

func mustUniverse(t *testing.T, cut circuits.CUT) *fault.Universe {
	t.Helper()
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	return u
}

// TestSparseWorkerCountBitIdentical pins the group decomposition: the
// frequency-group boundaries depend only on the omega list, never on the
// worker count, so sparse batch results must be bit-identical — not just
// 1e-9-close — at every worker count, including a padded last group.
func TestSparseWorkerCountBitIdentical(t *testing.T) {
	grid, err := circuits.RCGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(grid.Circuit, grid.Source, grid.Output)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFactorPath(FactorSparse)
	singles := paperSingles(t, grid)
	w0 := grid.Omega0
	// 10 frequencies: two full groups + a padded group of two columns.
	omegas := make([]float64, 10)
	for i := range omegas {
		omegas[i] = w0 * (0.2 + 0.35*float64(i))
	}
	ref, err := eng.BatchResponses(nil, singles, omegas, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{2, 3, 4, 8} {
		got, err := eng.BatchResponses(nil, singles, omegas, workers)
		if err != nil {
			t.Fatal(err)
		}
		checkBitIdentical(t, fmt.Sprintf("workers=%d", workers), got, ref)
	}
}

// TestPartialRefactorServesSMWFallback is the partial-refactorization
// acceptance pin: a fault engineered to break the Sherman–Morrison
// denominator guard (|1+δvᵀz| ≈ 3e-4, far under denGuard) on a sparse
// column must be re-solved by a partial refactorization from the
// column's golden factors — counter-asserted: no dense factorization of
// any kind runs — and still match the dense reference to 1e-9. On the
// dense path the exact fallback stamps the patched system afresh and
// factors it densely: TestRank2PivotGuardFallsBack's pair trips the
// guard there too, with one fallback and two dense factorizations
// (counter-asserted), and matches analysis.AC of the faulted clone to
// 1e-9.
func TestPartialRefactorServesSMWFallback(t *testing.T) {
	lad, err := circuits.RCLadder(96)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(lad.Circuit, lad.Source, lad.Output)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFactorPath(FactorSparse)
	tm := eng.tmpl

	// At ω=0 the ladder is purely resistive, so vᵀz of a series-resistor
	// slot is real and the denominator den(δ) = 1 + δ·vᵀz crosses zero at
	// a real, positive-value deviation (the resistor drifting open).
	// Compute δ* = -1/vᵀz from a dense solve and back off by 3e-4: den
	// lands at 3e-4 — breaking denGuard=1e-3 — while the patched matrix
	// stays far above the sparse static-pivot guard.
	const comp = "R48"
	si, ok := tm.byName[comp]
	if !ok {
		t.Fatalf("no slot for %s", comp)
	}
	sl := &tm.slots[si]
	vtz := slotVtz(t, tm, si, 0)
	delta := (-1 / vtz) * (1 - 3e-4)
	cstar := real(sl.coeff(sl.value, 0) + delta)
	if cstar <= 0 {
		t.Fatalf("engineered conductance %g not realizable", cstar)
	}
	dev := (1/cstar)/sl.value - 1
	f := fault.Fault{Component: comp, Deviation: dev}

	before := eng.Stats()
	got, err := eng.BatchResponses(nil, []fault.Fault{f}, []float64{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if d := s.ExactFallbacks - before.ExactFallbacks; d < 1 {
		t.Fatalf("engineered fault took no exact fallback (delta %d) — den guard did not trip", d)
	}
	if dp, df := s.PartialRefactors-before.PartialRefactors, s.ExactFallbacks-before.ExactFallbacks; dp != df {
		t.Errorf("partial refactors %d != exact fallbacks %d: some fallback left the sparse path", dp, df)
	}
	if d := s.DenseFactors - before.DenseFactors; d != 0 {
		t.Errorf("%d dense factorizations ran; partial refactorization must keep the fallback sparse", d)
	}
	if d := s.DenseFallbackExact - before.DenseFallbackExact; d != 0 {
		t.Errorf("dense_fallback_exact advanced by %d, want 0", d)
	}
	cols := s.PartialRefactorColumns - before.PartialRefactorColumns
	if cols < 1 || cols > int64(tm.n) {
		t.Errorf("partial refactor re-eliminated %d columns, want within [1, %d]", cols, tm.n)
	}

	// And the answer is still right.
	eng.SetFactorPath(FactorDense)
	ref, err := eng.BatchResponses(nil, []fault.Fault{f}, []float64{0}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if re := relErrFloor(got.Mags[0][0], ref.Mags[0][0], 1e-3*ref.Golden[0]); re > 1e-9 {
		t.Errorf("partial-refactor answer %.15g vs dense %.15g (rel %.3g)", got.Mags[0][0], ref.Mags[0][0], re)
	}

	// At ω = 0 no current flows through the ladder's series resistors,
	// so the faulted response is the golden one. The dense fallback is
	// pinned where the fault moves the response.
	const omega = 1e-6
	m := rank2GuardPair(t, tm, omega)
	before = eng.Stats()
	dense, err := eng.BatchResponsesSets(nil, []fault.Set{m}, []float64{omega}, 1)
	if err != nil {
		t.Fatal(err)
	}
	s = eng.Stats()
	if d := s.ExactFallbacks - before.ExactFallbacks; d != 1 {
		t.Fatalf("dense path: exact fallbacks advanced by %d, want 1 — the pivot guard did not trip", d)
	}
	if d := s.DenseFactors - before.DenseFactors; d != 2 {
		t.Errorf("dense path: dense factorizations advanced by %d, want 2 (the golden column and the fallback)", d)
	}
	want := acResponses(t, lad, m, []float64{omega})[0]
	if re := relErr(dense.Mags[0][0], want); re > 1e-9 {
		t.Errorf("dense fallback answer %.15g vs analysis.AC %.15g (rel %.3g)", dense.Mags[0][0], want, re)
	}
	if re := relErr(dense.Golden[0], want); re < 1e-3 {
		t.Errorf("faulted response %.15g within %.3g of the golden %.15g: the check shows nothing", want, re, dense.Golden[0])
	}
}

// slotVtz returns vᵀz = vᵀA(s)⁻¹u of template slot si, from a dense
// factorization of the golden system at s: the quantity whose
// 1 + δ·vᵀz is the slot's Sherman–Morrison denominator.
func slotVtz(t *testing.T, tm *Template, si int, s complex128) complex128 {
	t.Helper()
	sl := &tm.slots[si]
	m, _, err := tm.System().StampAt(s)
	if err != nil {
		t.Fatal(err)
	}
	lu, err := numeric.Factor(m)
	if err != nil {
		t.Fatal(err)
	}
	rhs := make([]complex128, tm.n)
	for _, ue := range sl.u {
		rhs[ue.idx] = ue.w
	}
	z := make([]complex128, tm.n)
	if err := lu.SolveInto(z, rhs); err != nil {
		t.Fatal(err)
	}
	var vtz complex128
	for _, ve := range sl.v {
		vtz += ve.w * z[ve.idx]
	}
	return vtz
}

// TestRank2PivotGuardFallsBack is the rank-2 counterpart of
// TestPartialRefactorServesSMWFallback: a double fault whose first part
// puts 1 + δ·vᵀz at about 3e-4 and whose second part is small makes the
// 2×2 capacitance matrix's first pivot fail denGuard, so the item must
// be re-solved by a partial refactorization on the sparse path — one
// rank-k attempt, one exact fallback, no dense factorization — and
// still match analysis.AC of the faulted clone to 1e-9. The frequency
// is low but not zero, so current flows through the faulted resistor
// and the answer differs from the golden one.
func TestRank2PivotGuardFallsBack(t *testing.T) {
	lad, err := circuits.RCLadder(96)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(lad.Circuit, lad.Source, lad.Output)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFactorPath(FactorSparse)
	const omega = 1e-6
	m := rank2GuardPair(t, eng.tmpl, omega)
	omegas := []float64{omega}

	before := eng.Stats()
	got, err := eng.BatchResponsesSets(nil, []fault.Set{m}, omegas, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := eng.Stats()
	if d := s.RankKSolves - before.RankKSolves; d != 1 {
		t.Errorf("rank-k solves advanced by %d, want 1", d)
	}
	if d := s.ExactFallbacks - before.ExactFallbacks; d != 1 {
		t.Fatalf("exact fallbacks advanced by %d, want 1 — the pivot guard did not trip", d)
	}
	if d := s.PartialRefactors - before.PartialRefactors; d != 1 {
		t.Errorf("partial refactors advanced by %d, want 1: the fallback left the sparse path", d)
	}
	if d := s.DenseFactors - before.DenseFactors; d != 0 {
		t.Errorf("%d dense factorizations ran, want 0", d)
	}

	want := acResponses(t, lad, m, omegas)[0]
	if re := relErr(got.Mags[0][0], want); re > 1e-9 {
		t.Errorf("fallback answer %.15g vs analysis.AC %.15g (rel %.3g)", got.Mags[0][0], want, re)
	}
	if re := relErr(got.Golden[0], want); re < 1e-3 {
		t.Errorf("faulted response %.15g within %.3g of the golden %.15g: the check shows nothing", want, re, got.Golden[0])
	}
}

// rank2GuardPair returns TestRank2PivotGuardFallsBack's double fault on
// rc-ladder-96's template tm: R48 engineered so that |1 + δ·vᵀz| = 3e-4
// at ω as the first part, R9 at +1 % as the second.
func rank2GuardPair(t *testing.T, tm *Template, omega float64) fault.Multi {
	t.Helper()
	// A resistor's δ is real, so 1 + δw (w = vᵀz) comes no closer to
	// zero than |Im w|/|w|, which is about 5e-5 at ω = 1e-6. Pick the
	// root δ of |1 + δw| = 3e-4 that leaves the conductance positive.
	const den = 3e-4
	si := tm.byName["R48"]
	sl := &tm.slots[si]
	w := slotVtz(t, tm, si, complex(0, omega))
	w2 := real(w)*real(w) + imag(w)*imag(w)
	disc := real(w)*real(w) - w2*(1-den*den)
	if disc < 0 {
		t.Fatalf("|1 + δ·vᵀz| cannot reach %g at ω=%g (vᵀz = %v)", den, omega, w)
	}
	delta := (-real(w) + math.Sqrt(disc)) / w2
	if got := cmplx.Abs(1 + complex(delta, 0)*w); math.Abs(got-den) > 1e-6 {
		t.Fatalf("engineered |1 + δ·vᵀz| = %g, want %g", got, den)
	}
	g := real(sl.coeff(sl.value, 0)) + delta
	if g <= 0 {
		t.Fatalf("engineered conductance %g not realizable", g)
	}
	// NewMulti orders the parts by name, so R48 is the first part.
	m, err := fault.NewMulti(
		fault.Fault{Component: "R48", Deviation: (1/g)/sl.value - 1},
		fault.Fault{Component: "R9", Deviation: 0.01},
	)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestFallbackLaneAcrossGroups pins the lane bookkeeping of the
// in-place group refactorization: every group's walk overwrites the
// lanes, so a column's factors must be copied out of its own group,
// never carried over from the lane's previous group. On one worker, two
// sparse batches of two frequency groups each put their exact fallbacks
// in lane 3 of both groups, and only there; every answer must match
// analysis.AC of the faulted clone to 1e-9, with two exact fallbacks,
// both served by partial refactorizations, and no dense factorization:
//
//   - walk side: TestRank2PivotGuardFallsBack's engineered rc-ladder-96
//     pair at ω = 1e-6 in group 1 and 1.000000001e-6 in group 2. Its
//     reads come from the lanes, so only the fallbacks copy a plane out;
//   - block side: the ladder's output capacitor at +3·10⁹ %, whose
//     corrected output cancels below cancelGuard at Omega0 in group 1
//     and 2·Omega0 in group 2, but not at the lower frequencies of lanes
//     0–2. Every column copies its plane out for the block solve.
func TestFallbackLaneAcrossGroups(t *testing.T) {
	lad, err := circuits.RCLadder(96)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(lad.Circuit, lad.Source, lad.Output)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFactorPath(FactorSparse)
	w0 := lad.Omega0
	cases := []struct {
		name   string
		item   fault.Set
		walks  bool
		omegas []float64
	}{
		{"walk side", rank2GuardPair(t, eng.tmpl, 1e-6), true,
			[]float64{1e-4, 1e-3, 1e-2, 1e-6, 1.01e-4, 1.01e-3, 1.01e-2, 1.000000001e-6}},
		{"block side", fault.Fault{Component: "C96", Deviation: 3e7}, false,
			[]float64{w0 / 1000, w0 / 300, w0 / 100, w0, 1.01 * w0 / 1000, 1.01 * w0 / 300, 1.01 * w0 / 100, 2 * w0}},
	}
	for _, tc := range cases {
		plan := testPlan(t, eng, []fault.Set{tc.item})
		var out Batch
		before := eng.Stats()
		if err := eng.SolveInto(nil, plan, tc.omegas, 1, nil, &out); err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		s := eng.Stats()
		if out.sv.on != tc.walks {
			t.Fatalf("%s: batch took the sparse-vector kernel: %v, want %v", tc.name, out.sv.on, tc.walks)
		}
		if d := s.ExactFallbacks - before.ExactFallbacks; d != 2 {
			t.Errorf("%s: exact fallbacks advanced by %d, want 2 (lane 3 of each group)", tc.name, d)
		}
		if d := s.PartialRefactors - before.PartialRefactors; d != 2 {
			t.Errorf("%s: partial refactors advanced by %d, want 2", tc.name, d)
		}
		if d := s.DenseFactors - before.DenseFactors; d != 0 {
			t.Errorf("%s: %d dense factorizations ran, want 0", tc.name, d)
		}
		want := acResponses(t, lad, tc.item, tc.omegas)
		for j, w := range tc.omegas {
			if re := relErr(out.Mags[0][j], want[j]); re > 1e-9 {
				t.Errorf("%s: ω=%g: %.15g vs analysis.AC %.15g (rel %.3g)", tc.name, w, out.Mags[0][j], want[j], re)
			}
		}
	}
}

// TestSupernodalGroupBatchAllocationFree extends the sparse steady-state
// allocation pin to the frequency-group path: with two full FreqBlock
// groups per solve, repeated solves of a held plan allocate nothing.
func TestSupernodalGroupBatchAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation drops pooled workspaces; counts are meaningless")
	}
	lad, err := circuits.RCLadder(80)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := New(lad.Circuit, lad.Source, lad.Output)
	if err != nil {
		t.Fatal(err)
	}
	eng.SetFactorPath(FactorSparse)
	plan := testPlan(t, eng, paperSingles(t, lad)[:25])
	omegas := make([]float64, 2*numeric.FreqBlock)
	for i := range omegas {
		omegas[i] = 0.004 + 0.004*float64(i)
	}
	var out Batch
	run := func() {
		if err := eng.SolveInto(nil, plan, omegas, 1, nil, &out); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up sizes the group scratch
	i := 0
	avg := testing.AllocsPerRun(30, func() {
		i++
		omegas[0] = 0.004 + float64(i%50)*1e-7
		run()
	})
	if avg >= 1 {
		t.Fatalf("group batch allocates %.2f objects/run in steady state, want < 1", avg)
	}
}
