package engine

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// cutEngines compiles one engine per built-in CUT.
func cutEngines(t *testing.T) []*Engine {
	t.Helper()
	var out []*Engine
	for _, cut := range circuits.All() {
		e, err := New(cut.Circuit, cut.Source, cut.Output)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		out = append(out, e)
	}
	return out
}

// testOmegas returns a frequency spread around a CUT's characteristic
// frequency.
func testOmegas(omega0 float64) []float64 {
	return []float64{omega0 / 50, omega0 / 5, omega0 / 2, omega0, omega0 * 2, omega0 * 7, omega0 * 40}
}

// TestBatchSetsMatchFullLUReference is the rank-k acceptance pin: for
// every built-in CUT, the batched Woodbury path must agree with the
// full-LU reference (ResponseSet: patch the template, factor the whole
// system) to within 1e-9 relative error over the complete double-fault
// universe at the paper deviations.
func TestBatchSetsMatchFullLUReference(t *testing.T) {
	for i, cut := range circuits.All() {
		eng := cutEngines(t)[i]
		u, err := fault.NewUniverse(cut.Passives, []float64{-0.4, -0.2, 0.3})
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		pairs, err := u.Pairs(nil, 0)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		sets := make([]fault.Set, 0, len(pairs)+2)
		sets = append(sets, fault.Fault{}, fault.Fault{Component: cut.Passives[0], Deviation: 0.3})
		for _, p := range pairs {
			sets = append(sets, p)
		}
		omegas := testOmegas(cut.Omega0)
		batch, err := eng.BatchResponsesSets(nil, sets, omegas, 3)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		// Same noise-floor convention as TestBatchAllCUTs: notch nulls far
		// below the circuit's peak response compare on absolute terms.
		var peak float64
		for _, g := range batch.Golden {
			peak = math.Max(peak, g)
		}
		floor := 1e-3 * peak
		for si, set := range sets {
			for j, w := range omegas {
				want, err := eng.ResponseSet(set, w)
				if err != nil {
					t.Fatalf("%s: %s: %v", cut.Circuit.Name(), set.ID(), err)
				}
				if re := relErrFloor(batch.Mags[si][j], want, floor); re > 1e-9 {
					t.Fatalf("%s: %s at ω=%g: batch %.15g, full LU %.15g (rel %.3g)",
						cut.Circuit.Name(), set.ID(), w, batch.Mags[si][j], want, re)
				}
			}
		}
	}
}

// TestBatchSetsMatchCloneAndSolve is the property test: random k∈{2,3}
// fault sets on random built-in CUTs, batched rank-k responses compared
// against the independent clone-and-full-solve reference (apply the
// multi to a circuit clone, reassemble, factor the fresh system) within
// 1e-9.
func TestBatchSetsMatchCloneAndSolve(t *testing.T) {
	cuts := circuits.All()
	engines := cutEngines(t)
	check := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ci := rng.Intn(len(cuts))
		cut, eng := cuts[ci], engines[ci]
		k := 2 + rng.Intn(2)
		if k > len(cut.Passives) {
			k = len(cut.Passives)
		}
		parts := make([]fault.Fault, k)
		for i, pi := range rng.Perm(len(cut.Passives))[:k] {
			// Deviations drawn continuously in ±60%, excluding near-zero.
			d := (rng.Float64()*2 - 1) * 0.6
			if d > -0.01 && d < 0.01 {
				d = 0.05
			}
			parts[i] = fault.Fault{Component: cut.Passives[pi], Deviation: d}
		}
		m, err := fault.NewMulti(parts...)
		if err != nil {
			t.Fatal(err)
		}
		omegas := testOmegas(cut.Omega0)
		batch, err := eng.BatchResponsesSets(nil, []fault.Set{m}, omegas, 1)
		if err != nil {
			t.Fatal(err)
		}
		faulty, err := m.Apply(cut.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		ac, err := analysis.NewAC(faulty)
		if err != nil {
			t.Fatal(err)
		}
		var peak float64
		for _, g := range batch.Golden {
			peak = math.Max(peak, g)
		}
		floor := 1e-3 * peak
		for j, w := range omegas {
			h, err := ac.Transfer(cut.Source, cut.Output, w)
			if err != nil {
				t.Fatal(err)
			}
			want := cmplx.Abs(h)
			if re := relErrFloor(batch.Mags[0][j], want, floor); re > 1e-9 {
				t.Logf("%s: %s at ω=%g: batch %.15g, clone %.15g (rel %.3g)",
					cut.Circuit.Name(), m.ID(), w, batch.Mags[0][j], want, re)
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestBatchSetsSharedSlots: items of a mixed batch share z-solves — a
// batch mixing golden, singles, and overlapping pairs must agree with
// each set solved alone. The workspace-reuse case runs batches of
// growing shape through one sparse engine's pooled workspaces.
func TestBatchSetsSharedSlots(t *testing.T) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	p := cut.Passives
	m1, _ := fault.NewMulti(fault.Fault{Component: p[0], Deviation: 0.2}, fault.Fault{Component: p[1], Deviation: -0.3})
	m2, _ := fault.NewMulti(fault.Fault{Component: p[0], Deviation: -0.4}, fault.Fault{Component: p[2], Deviation: 0.1})
	sets := []fault.Set{
		fault.Fault{},
		fault.Fault{Component: p[1], Deviation: -0.3},
		m1, m2,
	}
	omegas := testOmegas(cut.Omega0)
	batch, err := eng.BatchResponsesSets(nil, sets, omegas, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, set := range sets {
		alone, err := eng.BatchResponsesSets(nil, []fault.Set{set}, omegas, 1)
		if err != nil {
			t.Fatal(err)
		}
		for j := range omegas {
			if batch.Mags[i][j] != alone.Mags[0][j] {
				t.Fatalf("%s at ω=%g: mixed batch %.17g, alone %.17g",
					set.ID(), omegas[j], batch.Mags[i][j], alone.Mags[0][j])
			}
		}
	}
	t.Run("workspace-reuse", testWorkspaceReuseAcrossShapes)
}

// testWorkspaceReuseAcrossShapes: per-batch workspace scratch is sized by
// the batch, so one sparse engine must serve, in order, singles over two
// slots, a batch holding a 3-part set, and singles over more distinct
// slots — every batch matching ResponseSet to 1e-9 — at one worker (the
// same pooled workspace each time) and at two.
func testWorkspaceReuseAcrossShapes(t *testing.T) {
	grid, err := circuits.RCGrid(8)
	if err != nil {
		t.Fatal(err)
	}
	p := grid.Passives
	if len(p) < 8 {
		t.Fatalf("rc-grid-8 has %d fault targets, want ≥ 8", len(p))
	}
	triple, err := fault.NewMulti(fault.Fault{Component: p[0], Deviation: 0.2}, fault.Fault{Component: p[1], Deviation: -0.3}, fault.Fault{Component: p[2], Deviation: 0.4})
	if err != nil {
		t.Fatal(err)
	}
	var wide []fault.Set
	for _, c := range p[:8] {
		wide = append(wide, fault.Fault{Component: c, Deviation: -0.4}, fault.Fault{Component: c, Deviation: 0.3})
	}
	shapes := [][]fault.Set{
		{fault.Fault{}, fault.Fault{Component: p[0], Deviation: 0.2}, fault.Fault{Component: p[1], Deviation: -0.3}},
		{triple, fault.Fault{Component: p[3], Deviation: -0.2}, fault.Fault{}},
		wide,
	}
	w0 := grid.Omega0
	omegas := []float64{w0 / 4, w0, w0 * 3}
	for _, workers := range []int{1, 2} {
		eng, err := New(grid.Circuit, grid.Source, grid.Output)
		if err != nil {
			t.Fatal(err)
		}
		eng.SetFactorPath(FactorSparse)
		for si, sets := range shapes {
			b, err := eng.BatchResponsesSets(nil, sets, omegas, workers)
			if err != nil {
				t.Fatal(err)
			}
			floor := 1e-3 * math.Max(b.Golden[0], math.Max(b.Golden[1], b.Golden[2]))
			for i, set := range sets {
				for j, w := range omegas {
					want, err := eng.ResponseSet(set, w)
					if err != nil {
						t.Fatal(err)
					}
					if re := relErrFloor(b.Mags[i][j], want, floor); re > 1e-9 {
						t.Fatalf("workers=%d batch %d: %s at ω=%g: %.15g, full LU %.15g (rel %.3g)",
							workers, si, set.ID(), w, b.Mags[i][j], want, re)
					}
				}
			}
		}
	}
}

// TestBatchSetsRejectsDuplicateComponents: a hand-built set faulting one
// component twice is rejected up front, in both the batch and the exact
// paths.
func TestBatchSetsRejectsDuplicateComponents(t *testing.T) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	dup := fault.Multi{
		{Component: cut.Passives[0], Deviation: 0.1},
		{Component: cut.Passives[0], Deviation: 0.2},
	}
	if _, err := eng.BatchResponsesSets(nil, []fault.Set{dup}, []float64{1}, 1); err == nil {
		t.Fatal("duplicate-component set accepted by batch path")
	}
	if _, err := eng.ResponseSet(dup, 1); err == nil {
		t.Fatal("duplicate-component set accepted by exact path")
	}
}

// TestSolveSmallAgainstLU cross-checks the k×k capacitance solver
// against the general LU on random well-conditioned systems.
func TestSolveSmallAgainstLU(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		k := 2 + rng.Intn(3)
		m := numeric.NewMatrix(k, k)
		flat := make([]complex128, k*k)
		r := make([]complex128, k)
		for i := 0; i < k; i++ {
			r[i] = complex(rng.NormFloat64(), rng.NormFloat64())
			for j := 0; j < k; j++ {
				v := complex(rng.NormFloat64(), rng.NormFloat64())
				if i == j {
					v += 4 // diagonally dominant: solveSmall must accept
				}
				m.Set(i, j, v)
				flat[i*k+j] = v
			}
		}
		rhs := append([]complex128(nil), r...)
		if !solveSmall(k, flat, rhs) {
			t.Fatalf("trial %d: solveSmall refused a well-conditioned system", trial)
		}
		lu, err := numeric.FactorInPlace(m)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lu.Solve(r)
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if cmplx.Abs(rhs[i]-want[i]) > 1e-10*(1+cmplx.Abs(want[i])) {
				t.Fatalf("trial %d: x[%d] = %v, want %v", trial, i, rhs[i], want[i])
			}
		}
	}
}

// TestBatchSetsSingleFaultsAllocationFree: a warm BatchResponsesSetsInto
// over nf-lowpass-7's 56 single-fault sets allocates nothing. A single
// fault resolves as its own part, not through Fault.Parts, which
// allocates a one-element slice per item.
func TestBatchSetsSingleFaultsAllocationFree(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation drops pooled workspaces; counts are meaningless")
	}
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	var sets []fault.Set
	for _, f := range paperSingles(t, cut)[1:] { // the golden row aside
		sets = append(sets, f)
	}
	if len(sets) != 56 {
		t.Fatalf("%d single-fault sets, want 56", len(sets))
	}
	omegas := []float64{0.56, 4.55}
	var out Batch
	run := func() {
		if err := eng.BatchResponsesSetsInto(nil, sets, omegas, 1, &out); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: sizes the pooled workspace and the batch storage
	// < 1 rather than 0: a GC pass mid-measurement can empty the
	// engine's workspace pool.
	if avg := testing.AllocsPerRun(30, run); avg >= 1 {
		t.Fatalf("56 single-fault sets allocate %.2f objects per batch, want < 1", avg)
	}
}

// TestSinglesAndSetsBitIdentical pins the premise every layer above the
// engine rests on: single faults carried onto the fault-set path answer
// bit for bit what the single-fault entry point answers. BatchResponses
// and BatchResponsesSets run over the same paper universe (golden row
// included) at 1, 2 and 3 workers on every fixed and scaling CUT, with
// the default factorization path, plus rc-grid-16 and rc-ladder-64
// forced sparse, where the mesh takes the sparse-vector kernel and the
// ladder the block solve. The repeated single-fault calls also hit the
// engine's resolution memo.
func TestSinglesAndSetsBitIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("scaling CUTs are slow under -short")
	}
	type run struct {
		cut          circuits.CUT
		path         FactorPath
		sparseVector bool
	}
	var runs []run
	for _, cut := range append(circuits.All(), circuits.Scaling()...) {
		runs = append(runs, run{cut: cut, path: FactorAuto})
	}
	grid, err := circuits.RCGrid(16)
	if err != nil {
		t.Fatal(err)
	}
	lad, err := circuits.RCLadder(64)
	if err != nil {
		t.Fatal(err)
	}
	runs = append(runs, run{grid, FactorSparse, true}, run{lad, FactorSparse, false})
	for _, r := range runs {
		name := r.cut.Circuit.Name()
		e, err := New(r.cut.Circuit, r.cut.Source, r.cut.Output)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		e.SetFactorPath(r.path)
		faults := paperSingles(t, r.cut)
		sets := fault.Sets(faults)
		omegas := []float64{r.cut.Omega0 / 3, r.cut.Omega0, r.cut.Omega0 * 3}
		for _, workers := range []int{1, 2, 3} {
			singles, err := e.BatchResponses(nil, faults, omegas, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			viaSets, err := e.BatchResponsesSets(nil, sets, omegas, workers)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			for j := range omegas {
				if math.Float64bits(singles.Golden[j]) != math.Float64bits(viaSets.Golden[j]) {
					t.Fatalf("%s workers=%d ω=%g: golden %v (singles) vs %v (sets)", name, workers, omegas[j], singles.Golden[j], viaSets.Golden[j])
				}
				for i, f := range faults {
					if a, b := singles.Mags[i][j], viaSets.Mags[i][j]; math.Float64bits(a) != math.Float64bits(b) {
						t.Fatalf("%s workers=%d ω=%g %s: %v (singles) vs %v (sets)", name, workers, omegas[j], f.ID(), a, b)
					}
				}
			}
		}
		if r.path == FactorSparse {
			s := e.Stats()
			if s.SupernodalRefactors == 0 || (s.SparseVectorColumns > 0) != r.sparseVector {
				t.Fatalf("%s: %d sparse columns, %d through the sparse-vector kernel; want sparse columns, sparse-vector %v",
					name, s.SupernodalRefactors, s.SparseVectorColumns, r.sparseVector)
			}
		}
	}
}
