package engine

import (
	"fmt"
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
// faults, match the ResponseSet full-LU reference on a sample of items,
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
				for _, w := range all {
					v, err := eng.Response(singles[i], w)
					if err != nil {
						t.Fatal(err)
					}
					exactS[i] = append(exactS[i], v)
				}
			}
			exactD := map[int][]float64{}
			for i := 0; i < len(doubles); i += 5 {
				for _, w := range all {
					v, err := eng.ResponseSet(doubles[i], w)
					if err != nil {
						t.Fatal(err)
					}
					exactD[i] = append(exactD[i], v)
				}
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
// any kind runs — and still match the dense reference to 1e-9.
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
	m := numeric.NewMatrix(tm.n, tm.n)
	tm.stampGolden(m, 0)
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
}

// TestSupernodalGroupBatchAllocationFree extends the sparse steady-state
// allocation pin to the frequency-group path: with two full FreqBlock
// groups per batch, repeated batches allocate nothing.
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
	singles := paperSingles(t, lad)[:25]
	omegas := make([]float64, 2*numeric.FreqBlock)
	for i := range omegas {
		omegas[i] = 0.004 + 0.004*float64(i)
	}
	var out Batch
	run := func() {
		if err := eng.BatchResponsesInto(nil, singles, omegas, 1, &out); err != nil {
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
