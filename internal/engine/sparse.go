package engine

import (
	"fmt"

	"repro/internal/numeric"
)

// This file compiles the template's sparse golden stamp program. The
// template already enumerates every structural nonzero of A(s) — the
// static entries plus each slot's u·vᵀ rank-1 pattern — and that pattern
// is frequency-independent, so the symbolic analysis (transversal +
// minimum-degree ordering + fill pattern, numeric.AnalyzeSparse) runs
// once per circuit at Compile time. Per frequency the column solver then
// only writes coefficient values into the lanes of a
// numeric.BlockRefactorer, indexed by this program, and prepareGroup
// refactors FreqBlock such lanes in place in one walk. No index
// discovery, no allocation.

// sparseProgram maps the template's stamp contributions onto value-plane
// positions of the compiled sparse pattern.
type sparseProgram struct {
	sym *numeric.SparseSymbolic
	// staticIdx[k] is the plane position of static entry k.
	staticIdx []int
	// Slot si's rank-1 products occupy prodIdx/prodW[slotOff[si]:slotOff[si+1]]:
	// position and weight (u.w·v.w) of every (u_i, v_j) product.
	slotOff []int
	prodIdx []int
	prodW   []complex128
	// slotRows[si] lists the distinct permuted rows slot si's rank-1
	// products land on — the touched set a partial refactorization
	// re-eliminates from when an exact fallback patches that slot.
	slotRows [][]int
}

// compileSparse builds the sparse stamp program for a compiled template.
// It returns nil (no sparse path) for patterns the analysis rejects —
// a structurally singular pattern cannot come from a circuit whose dense
// matrix is nonsingular, but degenerate templates stay usable on the
// dense path instead of failing Compile.
func compileSparse(t *Template) *sparseProgram {
	if t.n == 0 {
		return nil
	}
	rows := make([][]int, t.n)
	for _, e := range t.static {
		rows[e.i] = append(rows[e.i], e.j)
	}
	for si := range t.slots {
		sl := &t.slots[si]
		for _, ue := range sl.u {
			for _, ve := range sl.v {
				rows[ue.idx] = append(rows[ue.idx], ve.idx)
			}
		}
	}
	sym, err := numeric.AnalyzeSparse(t.n, rows)
	if err != nil {
		return nil
	}
	sp := &sparseProgram{sym: sym, staticIdx: make([]int, len(t.static)), slotOff: make([]int, len(t.slots)+1)}
	for k, e := range t.static {
		sp.staticIdx[k] = sym.ValueIndex(e.i, e.j)
	}
	sp.slotRows = make([][]int, len(t.slots))
	seen := make([]int, t.n)
	for i := range seen {
		seen[i] = -1
	}
	for si := range t.slots {
		sl := &t.slots[si]
		for _, ue := range sl.u {
			for _, ve := range sl.v {
				sp.prodIdx = append(sp.prodIdx, sym.ValueIndex(ue.idx, ve.idx))
				sp.prodW = append(sp.prodW, ue.w*ve.w)
			}
		}
		sp.slotOff[si+1] = len(sp.prodIdx)
		for p := sp.slotOff[si]; p < sp.slotOff[si+1]; p++ {
			if r := sym.RowOfIndex(sp.prodIdx[p]); seen[r] != si {
				seen[r] = si
				sp.slotRows[si] = append(sp.slotRows[si], r)
			}
		}
	}
	return sp
}

// stampGoldenSparse is stampGoldenSoA accumulating the golden A(s) into
// zeroed sparse value planes laid out along the compiled pattern:
// position t's value is re[t], im[t]. StampSparse and the exact
// fallback stamp this way; prepareGroup stamps a whole frequency group
// with stampGoldenLanes. Entry accumulation order matches the dense
// stamp, so shared entries sum in the same order.
func (t *Template) stampGoldenSparse(re, im []float64, s complex128) {
	sp := t.sparse
	for k := range t.static {
		v := t.static[k].v
		at := sp.staticIdx[k]
		re[at] += real(v)
		im[at] += imag(v)
	}
	for si := range t.slots {
		sl := &t.slots[si]
		t.addRank1Sparse(re, im, si, sl.coeff(sl.value, s))
	}
}

// addRank1Sparse accumulates θ · u vᵀ for slot si into sparse value
// planes (see stampGoldenSparse) — the sparse counterpart of
// addRank1SoA.
func (t *Template) addRank1Sparse(re, im []float64, si int, theta complex128) {
	if theta == 0 {
		return
	}
	sp := t.sparse
	tr, ti := real(theta), imag(theta)
	for p := sp.slotOff[si]; p < sp.slotOff[si+1]; p++ {
		wr, wi := real(sp.prodW[p]), imag(sp.prodW[p])
		at := sp.prodIdx[p]
		re[at] += tr*wr - ti*wi
		im[at] += tr*wi + ti*wr
	}
}

// stampGoldenLanes stamps the golden A(jω) of a frequency group into
// the zeroed interleaved lanes of a numeric.BlockRefactorer (Lanes):
// lane x at omegas[x], and a short group's lanes past len(omegas) at its
// last ω, so they hold the same bits as its last column's lane. One pass
// adds each static entry and slot product to all FreqBlock lanes of its
// position, one cache line, and each lane receives stampGoldenSparse's
// additions in stampGoldenSparse's order, a slot skipped in a lane
// where its θ is 0 included: lane x holds StampSparse's planes at its ω
// bit for bit.
func (t *Template) stampGoldenLanes(lanes []float64, omegas []float64) {
	const nf = numeric.FreqBlock
	sp := t.sparse
	var s [nf]complex128
	for x := range s {
		s[x] = complex(0, omegas[min(x, len(omegas)-1)])
	}
	for k := range t.static {
		v := t.static[k].v
		at := sp.staticIdx[k] * fbStride
		l := lanes[at : at+fbStride : at+fbStride]
		r, m := real(v), imag(v)
		l[0], l[1], l[2], l[3] = l[0]+r, l[1]+r, l[2]+r, l[3]+r
		l[4], l[5], l[6], l[7] = l[4]+m, l[5]+m, l[6]+m, l[7]+m
	}
	for si := range t.slots {
		sl := &t.slots[si]
		var tr, ti [nf]float64
		for x := range s {
			th := sl.coeff(sl.value, s[x])
			tr[x], ti[x] = real(th), imag(th)
		}
		for p := sp.slotOff[si]; p < sp.slotOff[si+1]; p++ {
			wr, wi := real(sp.prodW[p]), imag(sp.prodW[p])
			at := sp.prodIdx[p] * fbStride
			l := lanes[at : at+fbStride : at+fbStride]
			for x := range tr {
				if tr[x] != 0 || ti[x] != 0 {
					l[x] += tr[x]*wr - ti[x]*wi
					l[nf+x] += tr[x]*wi + ti[x]*wr
				}
			}
		}
	}
}

// SparsePattern exposes the compiled symbolic pattern (nil when the
// template has no sparse path).
func (t *Template) SparsePattern() *numeric.SparseSymbolic {
	if t.sparse == nil {
		return nil
	}
	return t.sparse.sym
}

// StampSparse writes the golden A(jω) values onto the compiled sparse
// pattern's planes (each of length SparsePattern().LUNNZ()) — benchmark
// harnesses use it to time the numeric phase in isolation and to check
// the engine's golden solves against SparseLU.RefactorReuse.
func (t *Template) StampSparse(re, im []float64, omega float64) error {
	if t.sparse == nil {
		return fmt.Errorf("engine: template has no sparse pattern")
	}
	clear(re)
	clear(im)
	t.stampGoldenSparse(re, im, complex(0, omega))
	return nil
}
