package numeric

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"
)

// sparseVecCase is one half-solve fixture: a pattern and one frequency
// block of value planes.
type sparseVecCase struct {
	name       string
	sym        *SparseSymbolic
	ares, aims [FreqBlock][]float64
}

// sparseVecCases builds the fixture set: random unsymmetric systems and
// 2-D grid meshes.
func sparseVecCases(t *testing.T, rng *rand.Rand) []sparseVecCase {
	var out []sparseVecCase
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		m, rows := randSparseSystem(rng, n)
		sym, err := AnalyzeSparse(n, rows)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		re, im := planesFor(t, sym, m)
		ares, aims := blockPlanes(re, im)
		out = append(out, sparseVecCase{fmt.Sprintf("rand-%d", n), sym, ares, aims})
	}
	for _, k := range []int{3, 8, 16} {
		n, rows, planes := gridSystem(rng, k)
		sym, err := AnalyzeSparse(n, rows)
		if err != nil {
			t.Fatalf("grid analyze: %v", err)
		}
		re, im := planes(sym)
		ares, aims := blockPlanes(re, im)
		out = append(out, sparseVecCase{fmt.Sprintf("grid-%d", k), sym, ares, aims})
	}
	return out
}

// TestHalfSolvesMatchSolve pins the sparse-vector identity on every
// plane of a RefactorBlock: for random sparse q and p, wᵀy from the
// reach-limited half-solves equals pᵀ(A⁻¹q) from SolveInto to 1e-11
// of the summed term magnitudes of either side, and the half-solves leave their vectors zero outside the
// reach.
func TestHalfSolvesMatchSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var br BlockRefactorer
	var rc Reacher
	for _, cs := range sparseVecCases(t, rng) {
		var lus [FreqBlock]SparseLU
		for f, err := range br.RefactorBlock(cs.sym, &lus, &cs.ares, &cs.aims) {
			if err != nil {
				t.Fatalf("%s plane %d: %v", cs.name, f, err)
			}
		}
		n := cs.sym.N()
		y := make([]float64, n*fbStride)
		w := make([]float64, n*fbStride)
		x := make([]complex128, n)
		for trial := 0; trial < 8; trial++ {
			q := make([]complex128, n)
			p := make([]complex128, n)
			var qs, ps []int32
			for k := 0; k < 1+rng.Intn(3); k++ {
				o := rng.Intn(n)
				v := complex(rng.Float64()-0.5, rng.Float64()-0.5)
				q[o] += v
				SeedBlock(y, cs.sym.PermRow(o), v)
				qs = append(qs, int32(cs.sym.PermRow(o)))
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				o := rng.Intn(n)
				v := complex(rng.Float64()-0.5, rng.Float64()-0.5)
				p[o] += v
				SeedBlock(w, cs.sym.PermCol(o), v)
				ps = append(ps, int32(cs.sym.PermCol(o)))
			}
			ry, _ := rc.LowerReach(cs.sym, nil, qs)
			rw, _ := rc.UpperReach(cs.sym, nil, ps)
			br.LowerSolve(cs.sym, y, ry)
			br.UpperTSolve(cs.sym, w, rw)
			var got [FreqBlock]complex128
			DotBlock(&got, w, y, rw, false)
			for f := 0; f < FreqBlock; f++ {
				if err := lus[f].SolveInto(x, q); err != nil {
					t.Fatal(err)
				}
				var want complex128
				var scale float64
				for o := range p {
					want += p[o] * x[o]
					scale += cmplx.Abs(p[o] * x[o])
				}
				var wyScale float64
				for _, i := range rw {
					wi := complex(w[int(i)*fbStride+f], w[int(i)*fbStride+FreqBlock+f])
					yi := complex(y[int(i)*fbStride+f], y[int(i)*fbStride+FreqBlock+f])
					wyScale += cmplx.Abs(wi * yi)
				}
				// Relative to the larger summed term magnitude: either
				// route may cancel, the dot more than the full solve's
				// last back-substitution step.
				scale = max(scale, wyScale)
				if d := cmplx.Abs(got[f] - want); d > 1e-11*scale {
					t.Fatalf("%s trial %d plane %d: wᵀy = %v, pᵀA⁻¹q = %v", cs.name, trial, f, got[f], want)
				}
			}
			ClearBlock(y, ry)
			ClearBlock(w, rw)
			for i, v := range y {
				if v != 0 || w[i] != 0 {
					t.Fatalf("%s trial %d: entry %d left nonzero outside the reach", cs.name, trial, i/fbStride)
				}
			}
		}
	}
}

// TestReachAllocationFree pins that reaches reuse their scratch: once
// the destination has capacity, computing a reach allocates nothing.
func TestReachAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n, rows, _ := gridSystem(rng, 12)
	sym, err := AnalyzeSparse(n, rows)
	if err != nil {
		t.Fatal(err)
	}
	var rc Reacher
	dst := make([]int32, 0, 2*n)
	seeds := []int32{3, 70}
	if avg := testing.AllocsPerRun(20, func() {
		dst, _ = rc.LowerReach(sym, dst[:0], seeds)
		dst, _ = rc.UpperReach(sym, dst, seeds)
	}); avg != 0 {
		t.Fatalf("reach allocates %.1f objects per run", avg)
	}
}
