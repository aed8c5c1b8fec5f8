package numeric

import (
	"errors"
	"math/rand"
	"testing"
	"testing/quick"
)

// gridSystem builds the pattern and value planes of a k×k 5-point mesh
// (the shape of the rc-grid CUT family): diagonally dominant complex
// values on a 2-D grid graph. Real fill, real supernodes — the pattern
// class of the thousand-node CUTs.
func gridSystem(rng *rand.Rand, k int) (int, [][]int, func(sym *SparseSymbolic) ([]float64, []float64)) {
	n := k * k
	rows := make([][]int, n)
	at := func(x, y int) int { return y*k + x }
	for y := 0; y < k; y++ {
		for x := 0; x < k; x++ {
			i := at(x, y)
			rows[i] = append(rows[i], i)
			if x > 0 {
				rows[i] = append(rows[i], at(x-1, y))
			}
			if x < k-1 {
				rows[i] = append(rows[i], at(x+1, y))
			}
			if y > 0 {
				rows[i] = append(rows[i], at(x, y-1))
			}
			if y < k-1 {
				rows[i] = append(rows[i], at(x, y+1))
			}
		}
	}
	vals := make([]complex128, n)
	for i := range vals {
		vals[i] = complex(4.5+rng.Float64(), 0.3+rng.Float64())
	}
	planes := func(sym *SparseSymbolic) ([]float64, []float64) {
		re := make([]float64, sym.LUNNZ())
		im := make([]float64, sym.LUNNZ())
		for i, r := range rows {
			for _, j := range r {
				t := sym.ValueIndex(i, j)
				if i == j {
					re[t] += real(vals[i])
					im[t] += imag(vals[i])
				} else {
					re[t] += -1 + 0.01*float64((i+j)%7)
					im[t] += -0.1
				}
			}
		}
		return re, im
	}
	return n, rows, planes
}

func compareFactors(t *testing.T, name string, want, got *SparseLU) {
	t.Helper()
	for i := range want.vre {
		if want.vre[i] != got.vre[i] || want.vim[i] != got.vim[i] {
			t.Fatalf("%s: factor value %d differs: (%g,%g) vs (%g,%g)",
				name, i, want.vre[i], want.vim[i], got.vre[i], got.vim[i])
		}
	}
	for i := range want.ire {
		if want.ire[i] != got.ire[i] || want.iim[i] != got.iim[i] {
			t.Fatalf("%s: inverse diagonal %d differs", name, i)
		}
	}
}

// TestSupernodeScheduleInvariants checks the detected supernode runs:
// they cover [0,n) in ascending order, widths respect the cap, MaxPanel
// is the widest run, and every run satisfies the two defining
// invariants (nested U, dense in-block L).
func TestSupernodeScheduleInvariants(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	n, rows, _ := gridSystem(rng, 20)
	sym, err := AnalyzeSparse(n, rows)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	S := sym.Supernodes()
	if S < 1 || int(sym.snStart[0]) != 0 || int(sym.snStart[S]) != n {
		t.Fatalf("supernodes do not cover [0,%d): %v", n, sym.snStart)
	}
	if sym.MaxPanel() > maxPanelWidth || sym.MaxPanel() < 1 {
		t.Fatalf("MaxPanel %d out of [1,%d]", sym.MaxPanel(), maxPanelWidth)
	}
	// A 20×20 mesh must actually produce multi-row supernodes, or the
	// detection is vacuous.
	if sym.MaxPanel() < 4 {
		t.Fatalf("grid mesh produced MaxPanel %d; expected real supernodes", sym.MaxPanel())
	}
	rs, dp, cols := sym.rowStart, sym.diagPos, sym.cols
	widest := 0
	for sn := 0; sn < S; sn++ {
		lo, hi := int(sym.snStart[sn]), int(sym.snStart[sn+1])
		if hi <= lo || hi-lo > maxPanelWidth {
			t.Fatalf("supernode %d spans [%d,%d)", sn, lo, hi)
		}
		if hi-lo > widest {
			widest = hi - lo
		}
		for r := lo + 1; r < hi; r++ {
			// (1) nested U: U(r) = U(r-1) minus its diagonal.
			if rs[r+1]-dp[r] != rs[r]-dp[r-1]-1 {
				t.Fatalf("supernode %d row %d: U length not nested", sn, r)
			}
			for q := 0; q < rs[r+1]-dp[r]; q++ {
				if cols[dp[r]+q] != cols[dp[r-1]+1+q] {
					t.Fatalf("supernode %d row %d: U pattern not nested", sn, r)
				}
			}
			// (2) dense in-block L: columns lo … r-1 just left of the diagonal.
			w := r - lo
			if dp[r]-rs[r] < w {
				t.Fatalf("supernode %d row %d: in-block L too short", sn, r)
			}
			for q := 0; q < w; q++ {
				if cols[dp[r]-w+q] != lo+q {
					t.Fatalf("supernode %d row %d: in-block L not dense", sn, r)
				}
			}
		}
	}
	if widest != sym.MaxPanel() {
		t.Fatalf("MaxPanel %d, widest run %d", sym.MaxPanel(), widest)
	}
}

// TestPartialRefactorMatchesFromScratch is the quick property: for
// random systems and random delta patterns (random subsets of pattern
// positions perturbed), PartialRefactor from the base factorization is
// bit-identical to a from-scratch RefactorReuse of the patched planes.
func TestPartialRefactorMatchesFromScratch(t *testing.T) {
	prop := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 2 + rng.Intn(40)
		m, rows := randSparseSystem(rng, n)
		sym, err := AnalyzeSparse(n, rows)
		if err != nil {
			return false
		}
		re, im := planesFor(t, sym, m)
		var base SparseLU
		if err := base.RefactorReuse(sym, re, im); err != nil {
			// Random system tripped the static-pivot guard: nothing to
			// patch against; treat as vacuously true.
			return true
		}
		// Patch a few structural entries (delta pattern of a fault: a
		// handful of positions, as addRank1Sparse produces).
		pre := append([]float64(nil), re...)
		pim := append([]float64(nil), im...)
		touched := map[int]bool{}
		np := 1 + rng.Intn(4)
		for p := 0; p < np; p++ {
			t2 := rng.Intn(sym.LUNNZ())
			pre[t2] += rng.Float64() - 0.5
			pim[t2] += rng.Float64() - 0.5
			touched[sym.RowOfIndex(t2)] = true
		}
		var tr []int
		for r := range touched {
			tr = append(tr, r)
		}
		var scratch, partial SparseLU
		errScratch := scratch.RefactorReuse(sym, pre, pim)
		cnt, errPartial := partial.PartialRefactor(&base, pre, pim, tr)
		if (errScratch == nil) != (errPartial == nil) {
			t.Logf("seed %d: from-scratch err=%v, partial err=%v", seed, errScratch, errPartial)
			return false
		}
		if errScratch != nil {
			return errors.Is(errPartial, ErrSingular)
		}
		if cnt < 1 || cnt > n {
			return false
		}
		for i := range scratch.vre {
			if scratch.vre[i] != partial.vre[i] || scratch.vim[i] != partial.vim[i] {
				t.Logf("seed %d: factor value %d differs", seed, i)
				return false
			}
		}
		for i := range scratch.ire {
			if scratch.ire[i] != partial.ire[i] || scratch.iim[i] != partial.iim[i] {
				t.Logf("seed %d: inverse diagonal %d differs", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestPartialRefactorRecomputesSuffixOnly pins the economic point: on a
// banded ladder-like system, touching a late row recomputes far fewer
// rows than the whole matrix.
func TestPartialRefactorRecomputesSuffixOnly(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	n, rows, planes := gridSystem(rng, 16)
	sym, err := AnalyzeSparse(n, rows)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	re, im := planes(sym)
	var base SparseLU
	if err := base.RefactorReuse(sym, re, im); err != nil {
		t.Fatalf("refactor: %v", err)
	}
	// Patch one diagonal entry; the affected set is bounded by the rows
	// reachable from it, which for a mesh is a small fraction of n.
	pre := append([]float64(nil), re...)
	pim := append([]float64(nil), im...)
	t2 := sym.ValueIndex(3, 3)
	pre[t2] += 0.7
	var partial SparseLU
	cnt, err := partial.PartialRefactor(&base, pre, pim, []int{sym.RowOfIndex(t2)})
	if err != nil {
		t.Fatalf("partial refactor: %v", err)
	}
	if cnt < 1 || cnt >= n {
		t.Fatalf("partial refactor recomputed %d of %d rows", cnt, n)
	}
	var scratch SparseLU
	if err := scratch.RefactorReuse(sym, pre, pim); err != nil {
		t.Fatalf("from-scratch: %v", err)
	}
	compareFactors(t, "suffix partial", &scratch, &partial)
}

// TestPartialRefactorGuards covers the error surface: unfactored base,
// out-of-range touched rows, all-zero patched planes.
func TestPartialRefactorGuards(t *testing.T) {
	sym, err := AnalyzeSparse(2, [][]int{{0, 1}, {0, 1}})
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	re := []float64{4, 1, 1, 4}
	im := []float64{0, 0, 0, 0}
	var base, f SparseLU
	if _, err := f.PartialRefactor(&base, re, im, []int{0}); !errors.Is(err, ErrDimension) {
		t.Fatalf("unfactored base: got %v, want ErrDimension", err)
	}
	if err := base.RefactorReuse(sym, re, im); err != nil {
		t.Fatalf("refactor: %v", err)
	}
	if _, err := f.PartialRefactor(&base, re, im, []int{2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("out-of-range touched row: got %v, want ErrDimension", err)
	}
	zero := make([]float64, sym.LUNNZ())
	if _, err := f.PartialRefactor(&base, zero, zero, []int{0}); !errors.Is(err, ErrSingular) {
		t.Fatalf("all-zero patch: got %v, want ErrSingular", err)
	}
	// A patch that makes the matrix singular must surface ErrSingular.
	sing := []float64{1, 1, 1, 1}
	if _, err := f.PartialRefactor(&base, sing, im, []int{0, 1}); !errors.Is(err, ErrSingular) {
		t.Fatalf("singular patch: got %v, want ErrSingular", err)
	}
}

// TestPartialRefactorAllocationFree pins the same contract for the
// partial path once scratch is warm.
func TestPartialRefactorAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	n, rows, planes := gridSystem(rng, 12)
	sym, err := AnalyzeSparse(n, rows)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	re, im := planes(sym)
	var base, f SparseLU
	if err := base.RefactorReuse(sym, re, im); err != nil {
		t.Fatalf("refactor: %v", err)
	}
	pre := append([]float64(nil), re...)
	pim := append([]float64(nil), im...)
	t2 := sym.ValueIndex(n/2, n/2)
	pre[t2] += 0.25
	touched := []int{sym.RowOfIndex(t2)}
	run := func() {
		if _, err := f.PartialRefactor(&base, pre, pim, touched); err != nil {
			t.Fatalf("partial refactor: %v", err)
		}
	}
	run()
	if avg := testing.AllocsPerRun(20, run); avg > 0 {
		t.Fatalf("partial refactor allocates %.1f times per run after warm-up", avg)
	}
}
