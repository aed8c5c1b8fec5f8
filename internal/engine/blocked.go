package engine

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/numeric"
	"repro/internal/sliceutil"
)

// This file is the engine's per-frequency column solver. The golden
// system is factored once per frequency on one of two paths: the dense
// path stamps it into split re/im float64 planes and factors it with
// numeric.FactorSoAReuse (no complex division, no hypot in the pivot
// search); the sparse path stamps FreqBlock frequencies into the lanes
// of a numeric.BlockRefactorer and factors them in place in one walk
// (prepareGroup).
// The corrections read x0[out], and per distinct slot vᵀx0, vᵀz and
// z[out] (plus v_aᵀz_b for rank-k items). On dense columns — and sparse
// columns of batches whose reaches cover most of the pattern — x0's RHS
// and every distinct slot's u vector are assembled as columns of one
// numeric.Block and solved by a single multi-RHS SolveBlock (blockReads):
// both triangular sweeps walk the factors once per frequency instead of
// once per RHS, with the inner axpys over contiguous float64 plane runs,
// and the reads come straight off the block planes. Other sparse batches
// compute only those entries, by reach-limited half-solves over the
// group's factors (sparsevec.go). The Sherman–Morrison(-Woodbury)
// corrections use raw indexing and sqrt-based magnitudes — no hypot or
// complex-division runtime calls in the per-item loops. Ill-conditioned
// updates fall back to an exact solve: a partial sparse
// refactorization, or a dense SoA factorization.
// All storage lives in the pooled workspace, so the path is
// allocation-free in steady state. It is the engine's only solver: a
// single point is a one-item plan, and the tests pin the path against
// analysis.AC, which clones and assembles the circuit afresh.

// absC is the column solver's magnitude: sqrt(re²+im²) without hypot's
// overflow guards — a single sqrt instruction instead of a function
// call. Response magnitudes here are moderate (no squaring overflow),
// and the ≤1-ulp difference from cmplx.Abs is far inside the 1e-9
// contract against the analysis.AC reference.
func absC(v complex128) float64 {
	r, i := real(v), imag(v)
	return math.Sqrt(r*r + i*i)
}

// dotPlanes computes vᵀ·col over a sparse pattern vector and column c
// of a block given its raw planes (row stride nc).
func dotPlanes(v []sparseEntry, re, im []float64, nc, c int) complex128 {
	var sr, si float64
	for _, e := range v {
		br, bi := re[e.idx*nc+c], im[e.idx*nc+c]
		wr, wi := real(e.w), imag(e.w)
		sr += wr*br - wi*bi
		si += wr*bi + wi*br
	}
	return complex(sr, si)
}

// recipC returns 1/v in the scaled (Smith) form — the column solver's
// replacement for the complex-division runtime call.
func recipC(v complex128) complex128 {
	a, b := real(v), imag(v)
	if math.Abs(a) >= math.Abs(b) {
		r := b / a
		d := a + b*r
		return complex(1/d, -r/d)
	}
	r := a / b
	d := a*r + b
	return complex(r/d, -1/d)
}

// solveSmall solves the k×k dense complex system m·x = r in place
// (row-major m; r is overwritten with the solution) by Gaussian
// elimination with partial pivoting: pivot selection by squared modulus
// (no hypot) and elimination/back-substitution by reciprocal
// multiplication (no complex-division runtime call). It reports false —
// leaving the caller to fall back to an exact solve — when a pivot
// falls below denGuard relative to the matrix magnitude, the analogue
// of the rank-1 denominator guard; the comparison runs on squared
// magnitudes, so the threshold applies squared.
func solveSmall(k int, m, r []complex128) bool {
	var norm2 float64
	for _, v := range m {
		if a := real(v)*real(v) + imag(v)*imag(v); a > norm2 {
			norm2 = a
		}
	}
	if norm2 == 0 {
		return false
	}
	guard2 := denGuard * denGuard * norm2
	for col := 0; col < k; col++ {
		p := col
		pv := m[col*k+col]
		pa := real(pv)*real(pv) + imag(pv)*imag(pv)
		for row := col + 1; row < k; row++ {
			v := m[row*k+col]
			if a := real(v)*real(v) + imag(v)*imag(v); a > pa {
				p, pa = row, a
			}
		}
		if pa < guard2 {
			return false
		}
		if p != col {
			for c := col; c < k; c++ {
				m[p*k+c], m[col*k+c] = m[col*k+c], m[p*k+c]
			}
			r[p], r[col] = r[col], r[p]
		}
		inv := recipC(m[col*k+col])
		for row := col + 1; row < k; row++ {
			f := m[row*k+col] * inv
			if f == 0 {
				continue
			}
			for c := col + 1; c < k; c++ {
				m[row*k+c] -= f * m[col*k+c]
			}
			r[row] -= f * r[col]
		}
	}
	for row := k - 1; row >= 0; row-- {
		v := r[row]
		for c := row + 1; c < k; c++ {
			v -= m[row*k+c] * r[c]
		}
		r[row] = v * recipC(m[row*k+row])
	}
	return true
}

// solve2 is solveSmall at k = 2, unrolled, for the 2×2 system
// [m00 m01; m10 m11]·w = [r0; r1]: the same max-modulus norm, the same
// pivot choice (a strict > on squared moduli) and row swap, the same
// denGuard test on both pivots and the same f == 0 skip, each in the
// same order of operations, so its verdict and every bit of its
// solution are solveSmall's. The first pivot's reciprocal is computed
// once and serves the back-substitution too, where solveSmall computes
// it again.
func solve2(m00, m01, m10, m11, r0, r1 complex128) (w0, w1 complex128, ok bool) {
	a00 := real(m00)*real(m00) + imag(m00)*imag(m00)
	a01 := real(m01)*real(m01) + imag(m01)*imag(m01)
	a10 := real(m10)*real(m10) + imag(m10)*imag(m10)
	a11 := real(m11)*real(m11) + imag(m11)*imag(m11)
	// Not the max builtin: it returns NaN for a NaN entry, which
	// solveSmall's loop skips.
	var norm2 float64
	if a00 > norm2 {
		norm2 = a00
	}
	if a01 > norm2 {
		norm2 = a01
	}
	if a10 > norm2 {
		norm2 = a10
	}
	if a11 > norm2 {
		norm2 = a11
	}
	if norm2 == 0 {
		return 0, 0, false
	}
	guard2 := denGuard * denGuard * norm2
	pa := a00
	if a10 > pa {
		m00, m01, m10, m11 = m10, m11, m00, m01
		r0, r1 = r1, r0
		pa = a10
	}
	if pa < guard2 {
		return 0, 0, false
	}
	inv0 := recipC(m00)
	if f := m10 * inv0; f != 0 {
		m11 -= f * m01
		r1 -= f * r0
	}
	if real(m11)*real(m11)+imag(m11)*imag(m11) < guard2 {
		return 0, 0, false
	}
	w1 = r1 * recipC(m11)
	return (r0 - m01*w1) * inv0, w1, true
}

// prepareGroup refactors the golden systems of frequency columns
// [g, hi) in one frequency-blocked walk: the group's golden A(jω) are
// stamped straight into the lanes of the workspace's BlockRefactorer in
// one pass (stampGoldenLanes) and factored there in place. The outcomes
// are cached per column; a column's factors are copied out into a
// SparseLU only if it reads them as one (groupLU). A group shorter than
// FreqBlock (the last one, when the frequency count is not a multiple
// of it) stamps its unused lanes at its last real column's ω; their
// factors are never read. Dense engines leave the cache empty. Any
// error — including a singular plane — is deferred to the column's own
// solve. When the solve picked the sparse-vector kernel, the group's
// correction reads are computed here too (readGroup).
func (e *Engine) prepareGroup(ws *workspace, omegas []float64, g, hi int, p *Plan, out *Batch) {
	ws.grpJ0 = -1
	if !e.sparseColumn() {
		return
	}
	t := e.tmpl
	lanes := ws.bref.Lanes(t.sparse.sym)
	clear(lanes)
	t.stampGoldenLanes(lanes, omegas[g:hi])
	ws.grpErr = ws.bref.FactorLanes(t.sparse.sym, &ws.slusBlk)
	ws.grpCopied = [numeric.FreqBlock]bool{}
	ws.grpJ0 = g
	if out.sv.on {
		e.readGroup(ws, p, out)
	}
}

// groupLU returns the current column's golden factors as a SparseLU,
// copying them out of the group's lanes on the column's first read.
func (ws *workspace) groupLU() *numeric.SparseLU {
	if !ws.grpCopied[ws.gx] {
		ws.bref.CopyOut(ws.gx, &ws.slusBlk[ws.gx])
		ws.grpCopied[ws.gx] = true
	}
	return &ws.slusBlk[ws.gx]
}

// solveColumn fills column j of the batch table: the golden
// factorization and correction reads (factorColumn), then
// O(k²·n_sparse + k³) work per k-part item (O(1) for the dominant rank-1
// case). The items' parts and distinct slots are read from the
// resolved plan p.
func (e *Engine) solveColumn(ws *workspace, omega float64, p *Plan, out *Batch, j int) error {
	// Path counters accumulate in the workspace for the column and flush
	// to the shared atomics once at the end — including error returns, so
	// partially solved columns are still attributed. Spans are recorded
	// for fault-set plans only (see SetTracer); the GA fitness path's
	// single-fault plan pays one nil check here and nothing else.
	if tr := e.tracer; tr != nil && p.spans {
		defer tr.StartSpan("engine.column").End()
	}
	ws.cDense, ws.cSparse, ws.cRank1, ws.cRankK, ws.cFallback = 0, 0, 0, 0, 0
	ws.cSupernodal, ws.cPartial, ws.cPartialCols, ws.cDenseExact, ws.cDenseSingular = 0, 0, 0, 0, 0
	ws.cSparseVector = 0
	defer e.stats.flush(ws)

	x0out, err := e.factorColumn(ws, omega, p, out, j)
	if err != nil {
		return err
	}
	s := complex(0, omega)
	t := e.tmpl
	// Every deviation of a component shares its slot's golden coefficient.
	for zi, si := range p.distinct {
		sl := &t.slots[si]
		ws.gcoeff[zi] = sl.coeff(sl.value, s)
	}
	x0outAbs := absC(x0out)
	out.Golden[j] = x0outAbs * e.invAmpAbs

	for fi := range out.Mags {
		lo, hi := p.off[fi], p.off[fi+1]
		if lo == hi {
			out.Mags[fi][j] = out.Golden[j]
			continue
		}
		if hi-lo > 1 {
			if err := e.solveItemK(ws, s, omega, p, out, fi, j, x0out, x0outAbs); err != nil {
				return err
			}
			continue
		}
		si := p.partSlot[lo]
		sl := &t.slots[si]
		zi := p.zSlot[si]
		delta := sl.coeff(p.partVal[lo], s) - ws.gcoeff[zi]
		if delta == 0 {
			out.Mags[fi][j] = out.Golden[j]
			continue
		}
		ws.cRank1++
		dv := delta * ws.vtz[zi]
		// den = 1 + dv is O(1) by the guard below, so the naive
		// single-divide reciprocal is safe (no overflow regime) and two
		// divides cheaper than the Smith form; a near-zero den produces a
		// huge xout that the guard then routes to the exact solve anyway.
		dr, di := 1+real(dv), imag(dv)
		den2 := dr*dr + di*di
		inv := 1 / den2
		xout := x0out - delta*ws.vtx0[zi]*complex(dr*inv, -di*inv)*ws.zoutc[zi]
		ax := absC(xout)
		if math.Sqrt(den2) < denGuard*(1+absC(dv)) ||
			ax < cancelGuard*x0outAbs {
			// Ill-conditioned update or catastrophic cancellation: solve
			// the faulted system exactly.
			ws.delta[0] = delta
			xf, err := e.exactFallback(ws, s, omega, p, fi, ws.delta[:1])
			if err != nil {
				return err
			}
			ax = absC(xf)
		}
		out.Mags[fi][j] = ax * e.invAmpAbs
	}
	return nil
}

// factorColumn is solveColumn's first half: column j's golden
// factorization and its correction reads. It returns x0[out] and leaves
// vᵀx0, vᵀz and z[out] of every distinct slot of p in ws, read from the
// group's half-solves or computed by one multi-RHS solve. OutputNoisePSD
// runs it alone, for the z[out] reads.
func (e *Engine) factorColumn(ws *workspace, omega float64, p *Plan, out *Batch, j int) (complex128, error) {
	t := e.tmpl
	// Golden factorization: on the sparse path prepareGroup already
	// refactored this column's planes numerically on the pattern's static
	// elimination schedule — O(fill) instead of O(n³). An ill-conditioned
	// sparse pivot (the sparse factorization does no numerical pivoting)
	// falls through to the dense partial-pivoting factorization below, so
	// sparse never changes what is computable.
	ws.colSparse = false
	if ws.grpJ0 >= 0 {
		ws.gx = j - ws.grpJ0
		err := ws.grpErr[ws.gx]
		if err == nil {
			ws.colSparse = true
			ws.cSparse++
			ws.cSupernodal++
		} else if !errors.Is(err, numeric.ErrSingular) {
			return 0, fmt.Errorf("engine: golden system at ω=%g: %w", omega, err)
		} else {
			ws.cDenseSingular++
		}
	}
	if !ws.colSparse {
		ws.ensureSoADense(t.n)
		t.stampGoldenSoA(ws.fs, complex(0, omega))
		if err := numeric.FactorSoAReuse(&ws.slu, ws.fs); err != nil {
			return 0, fmt.Errorf("engine: golden system at ω=%g: %w", omega, err)
		}
		ws.cDense++
	}

	ws.colSV = ws.colSparse && out.sv.on
	if !ws.colSV {
		return e.blockReads(ws, p)
	}
	// The group's half-solves already computed every read; pick this
	// column's plane.
	ws.cSparseVector++
	for zi := range p.distinct {
		ws.vtz[zi] = ws.svVtz[zi][ws.gx]
		ws.vtx0[zi] = ws.svVtx0[zi][ws.gx]
		ws.zoutc[zi] = ws.svZout[zi][ws.gx]
	}
	return ws.svX0[ws.gx], nil
}

// blockReads is the column's block-solve kernel — every dense column,
// and sparse columns of solves that kept the block: one
// multi-RHS block per frequency, column 0 carrying the source vector b
// (→ the golden solution x0), column 1+zi the sparse u pattern of
// distinct slot zi (→ its z = A⁻¹u). A single blocked solve replaces
// k+1 sequential one-RHS solves. It returns x0[out] and fills the
// per-slot reads.
func (e *Engine) blockReads(ws *workspace, p *Plan) (complex128, error) {
	t := e.tmpl
	nc := 1 + len(p.distinct)
	blk := ws.blk
	blk.Reset(t.n, nc)
	blk.Zero()
	bre, bim, err := blk.PlanesFor(t.n, nc)
	if err != nil {
		return 0, err
	}
	for i, v := range t.b {
		if v != 0 {
			bre[i*nc], bim[i*nc] = real(v), imag(v)
		}
	}
	for zi, si := range p.distinct {
		for _, ue := range t.slots[si].u {
			at := ue.idx*nc + 1 + zi
			bre[at], bim[at] = real(ue.w), imag(ue.w)
		}
	}
	if ws.colSparse {
		if err := ws.groupLU().SolveBlock(blk); err != nil {
			return 0, err
		}
	} else if err := ws.slu.SolveBlock(blk); err != nil {
		return 0, err
	}

	var x0out complex128
	if e.outIdx >= 0 {
		x0out = complex(bre[e.outIdx*nc], bim[e.outIdx*nc])
	}
	// Hoist the slot-only factors of the rank-1 correction: every
	// deviation of a component reuses its slot's vᵀz, vᵀx0 and z[out], so
	// they are computed once per frequency here instead of once per item.
	for zi, si := range p.distinct {
		sl := &t.slots[si]
		ws.vtz[zi] = dotPlanes(sl.v, bre, bim, nc, 1+zi)
		ws.vtx0[zi] = dotPlanes(sl.v, bre, bim, nc, 0)
		if e.outIdx >= 0 {
			ws.zoutc[zi] = complex(bre[e.outIdx*nc+1+zi], bim[e.outIdx*nc+1+zi])
		} else {
			ws.zoutc[zi] = 0
		}
	}
	return x0out, nil
}

// solveItemK solves one k ≥ 2 part item of column j by the
// Sherman–Morrison–Woodbury identity. With the update written as
// Σ_a δ_a u_a v_aᵀ, the corrected solution is
//
//	x = x₀ − Z w,   (I_k + diag(δ) Vᵀ Z) w = diag(δ) Vᵀ x₀,
//
// where column b of Z is the already-solved z_b = A⁻¹ u_b shared with
// every other item touching slot b; the k×k capacitance system is
// assembled from sparse dots against the block's x0 and z columns, or,
// on sparse-vector columns, from the group's cross-term table. A pair
// (k = 2, every double fault) reads its two cross terms directly and
// solves with solve2; larger items assemble the matrix and run
// solveSmall. An ill-conditioned capacitance matrix (small pivot) or a
// catastrophic cancellation in the output falls back to the exact solve
// — the same guards, and the same fallback, as the rank-1 path.
func (e *Engine) solveItemK(ws *workspace, s complex128, omega float64, p *Plan, out *Batch, fi, j int, x0out complex128, x0outAbs float64) error {
	t := e.tmpl
	lo, hi := p.off[fi], p.off[fi+1]
	k := hi - lo
	xout := x0out
	var ok bool
	if k == 2 {
		si0, si1 := p.partSlot[lo], p.partSlot[lo+1]
		z0, z1 := p.zSlot[si0], p.zSlot[si1]
		d0 := t.slots[si0].coeff(p.partVal[lo], s) - ws.gcoeff[z0]
		d1 := t.slots[si1].coeff(p.partVal[lo+1], s) - ws.gcoeff[z1]
		if d0 == 0 && d1 == 0 {
			out.Mags[fi][j] = out.Golden[j]
			return nil
		}
		ws.cRankK++
		ws.delta[0], ws.delta[1] = d0, d1
		// The parts' slots are distinct (Resolve), so both off-diagonal
		// terms are cross terms: v₀ᵀz₁ and v₁ᵀz₀.
		var c01, c10 complex128
		if ws.colSV {
			at := out.sv.crossOff[fi]
			c01 = ws.svCross[out.sv.crossAt[at+1]][ws.gx]
			c10 = ws.svCross[out.sv.crossAt[at+2]][ws.gx]
		} else {
			bre, bim := ws.blk.Planes()
			nc := ws.blk.Cols()
			c01 = dotPlanes(t.slots[si0].v, bre, bim, nc, 1+z1)
			c10 = dotPlanes(t.slots[si1].v, bre, bim, nc, 1+z0)
		}
		var w0, w1 complex128
		w0, w1, ok = solve2(d0*ws.vtz[z0]+1, d0*c01, d1*c10, d1*ws.vtz[z1]+1,
			d0*ws.vtx0[z0], d1*ws.vtx0[z1])
		if ok && e.outIdx >= 0 {
			xout -= w0 * ws.zoutc[z0]
			xout -= w1 * ws.zoutc[z1]
		}
	} else {
		anyDelta := false
		for a := 0; a < k; a++ {
			si := p.partSlot[lo+a]
			d := t.slots[si].coeff(p.partVal[lo+a], s) - ws.gcoeff[p.zSlot[si]]
			ws.delta[a] = d
			if d != 0 {
				anyDelta = true
			}
		}
		if !anyDelta {
			out.Mags[fi][j] = out.Golden[j]
			return nil
		}
		ws.cRankK++
		bre, bim := ws.blk.Planes()
		nc := ws.blk.Cols()
		var cross []int32
		if ws.colSV {
			cross = out.sv.crossAt[out.sv.crossOff[fi] : out.sv.crossOff[fi]+k*k]
		}
		cm := ws.cmat[:k*k]
		w := ws.wvec[:k]
		for a := 0; a < k; a++ {
			sl := &t.slots[p.partSlot[lo+a]]
			zia := p.zSlot[p.partSlot[lo+a]]
			w[a] = ws.delta[a] * ws.vtx0[zia]
			for b := 0; b < k; b++ {
				zib := p.zSlot[p.partSlot[lo+b]]
				var v complex128
				switch {
				case zib == zia:
					v = ws.delta[a] * ws.vtz[zia]
				case cross != nil:
					v = ws.delta[a] * ws.svCross[cross[a*k+b]][ws.gx]
				default:
					v = ws.delta[a] * dotPlanes(sl.v, bre, bim, nc, 1+zib)
				}
				if a == b {
					v++
				}
				cm[a*k+b] = v
			}
		}
		ok = solveSmall(k, cm, w)
		if ok && e.outIdx >= 0 {
			for b := 0; b < k; b++ {
				xout -= w[b] * ws.zoutc[p.zSlot[p.partSlot[lo+b]]]
			}
		}
	}
	ax := absC(xout)
	if !ok || ax < cancelGuard*x0outAbs {
		xf, err := e.exactFallback(ws, s, omega, p, fi, ws.delta[:k])
		if err != nil {
			return err
		}
		ax = absC(xf)
	}
	out.Mags[fi][j] = ax * e.invAmpAbs
	return nil
}

// exactFallback solves item fi's patched system A(s) + Σ δ_a u_a v_aᵀ
// (deltas[a] on the item's part a) exactly into ws.xf and returns its
// output component — the escape hatch
// both blocked per-item paths take on an ill-conditioned update or
// catastrophic cancellation. On a sparse golden column the patched
// refactorization is a partial refactorization from the column's golden
// factors (groupLU) over its golden planes stamped afresh: the slot
// deltas land on already-structural positions, so the compiled per-slot
// touched rows bound exactly which columns of the elimination must be
// redone — for a localized fault that is a small reachable cone, not the
// whole matrix. An ill-conditioned sparse pivot then falls back to the
// dense partial-pivoting factorization. The dense fallback, on either
// kind of column, stamps the golden planes afresh and patches them: the
// golden factorization overwrote its own stamp, and the stamp is
// deterministic, so the fresh one holds the same bits.
func (e *Engine) exactFallback(ws *workspace, s complex128, omega float64, p *Plan, fi int, deltas []complex128) (complex128, error) {
	t := e.tmpl
	slots := p.partSlot[p.off[fi]:p.off[fi+1]]
	ws.cFallback++
	if ws.colSparse {
		// The golden planes were factored in place; the stamp is
		// deterministic, so re-stamping them gives the same bits.
		lnnz := t.sparse.sym.LUNNZ()
		ws.spre2 = sliceutil.Grow(ws.spre2, lnnz)
		ws.spim2 = sliceutil.Grow(ws.spim2, lnnz)
		clear(ws.spre2)
		clear(ws.spim2)
		t.stampGoldenSparse(ws.spre2, ws.spim2, s)
		touched := ws.touched[:0]
		for a, si := range slots {
			t.addRank1Sparse(ws.spre2, ws.spim2, si, deltas[a])
			touched = append(touched, t.sparse.slotRows[si]...)
		}
		ws.touched = touched
		cnt, err := ws.slus2.PartialRefactor(ws.groupLU(), ws.spre2, ws.spim2, touched)
		if err == nil {
			ws.cSparse++
			ws.cPartial++
			ws.cPartialCols += int64(cnt)
			if err := ws.slus2.SolveInto(ws.xf, t.b); err != nil {
				return 0, err
			}
			return e.out(ws.xf), nil
		}
		if !errors.Is(err, numeric.ErrSingular) {
			return 0, fmt.Errorf("engine: fault %s at ω=%g: %w", p.id(fi), omega, err)
		}
		ws.cDenseExact++
	}
	ws.ensureSoADense(t.n)
	t.stampGoldenSoA(ws.f2s, s)
	for a, si := range slots {
		t.addRank1SoA(ws.f2s, &t.slots[si], deltas[a])
	}
	if err := numeric.FactorSoAReuse(&ws.slu2, ws.f2s); err != nil {
		return 0, fmt.Errorf("engine: fault %s at ω=%g: %w", p.id(fi), omega, err)
	}
	ws.cDense++
	if err := ws.slu2.SolveInto(ws.xf, t.b); err != nil {
		return 0, err
	}
	return e.out(ws.xf), nil
}
