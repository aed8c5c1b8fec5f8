package engine

import (
	"repro/internal/numeric"
	"repro/internal/sliceutil"
)

// This file is the sparse path's column kernel. The rank-1 and rank-k
// corrections read only x0[out], vᵀx0, vᵀz and z[out] per slot, and
// v_aᵀz_b for rank-k items — never a whole solution vector. Each is
// pᵀA⁻¹q with q ∈ {b, u_s} and p ∈ {e_out, v_s}, so with the column's
// factors it is (U⁻ᵀp′)·(L⁻¹q′): one lower half-solve per q, one upper
// half-solve per p, then dots (numeric/sparsevec.go; Tinney, Brandwajn
// & Chan's sparse-vector method with Alsaç, Stott & Tinney's
// compensation). Pivots are static, so each half-solve visits only the
// fixed reach of its seeds; planSparseVector computes those reaches once
// per solve, for the plan's distinct slots, and readGroup runs the
// half-solves for all FreqBlock planes of a frequency group in one walk
// over the blocked refactorization's interleaved factors.

// fbStride is the float64 stride per position of the interleaved
// half-solve vectors: FreqBlock reals, then FreqBlock imaginaries.
const fbStride = 2 * numeric.FreqBlock

// svEntryCost weighs one factor entry a reach walk visits against one
// entry-column of the multi-RHS block solve, which sweeps all LUNNZ
// entries once for each of its 1 + T columns with contiguous inner
// loops. A batch takes the reach walks when their summed visits (factor
// entries plus reach rows, over b, the output and every distinct slot)
// times this weight stay within LUNNZ·(1 + T). Cross terms are left out:
// the block path pays the same per-item v_aᵀz_b dots they replace.
// Measured on a 2-vCPU VM (one worker, medians of 5 interleaved runs of
// each kernel), the block-to-walk visit ratio and the walks' speed-up:
// rc-grid-16 3.9 → 2.0×, rc-grid-32 4.4 → 2.3×, opamp-cascade-32 10.6 →
// 3.2× (singles) and 1.1× (rank-2 pairs); every ladder sat at 1.5 and
// lost or tied, 0.75–0.98×, its reaches running to the root of the
// elimination tree. 2 splits the two groups. With the AVX walks
// (numeric's fbLowerSolveAVX, fbUpperTSolveAVX) the same runs read
// rc-grid-16 3.9×, rc-grid-32 3.9×, opamp-cascade-32 5.2× (singles) and
// 1.4× (pairs), and rc-ladder-512 with every passive, at ratio 1.5,
// 1.8× (1.4× with the Go walks on the same host): the ladder wins too,
// but the weight stays 2, because moving it changes which kernel a
// batch takes and so that batch's last bits.
const svEntryCost = 2

// svSample is the number of slots, spread evenly over the batch, whose
// reaches estimate the count before every reach is built. It bounds the
// planning a block-side batch wastes to eight slots' reaches: on
// rc-ladder-512 with every passive (1024 slots), the exact count alone
// built 887 of them per batch before failing, which made the 4-ω batch
// of BenchmarkColumnKernelsSparse 14 % slower than the block solve alone.
const svSample = 8

// svPlan is a solve's sparse-vector plan. on reports whether the
// solve's sparse columns read their corrections from reach-limited
// half-solves instead of the multi-RHS block solve. Distinct slot zi's L
// reach (from u) is lReach[lOff[zi]:lOff[zi+1]] and its U reach (from v)
// uReach[uOff[zi]:uOff[zi+1]]; position len(distinct) holds b's L reach
// and the output's U reach. pairs lists the cross terms v_aᵀz_b the
// rank-k items read, as z_a<<32 | z_b grouped by z_a; item i's part pair
// (a, b) reads pairs entry crossAt[crossOff[i] + a·k + b] (-1 on the
// diagonal). Every slice grows and is reused across solves.
type svPlan struct {
	on         bool
	lOff, uOff []int
	lReach     []int32
	uReach     []int32
	pairs      []int64
	crossOff   []int
	crossAt    []int32

	// Scratch: reach seeds, the reach marks, and planCross's buckets.
	seeds     []int32
	reacher   numeric.Reacher
	bucket    []int
	ent       []int32
	seen, idx []int32
}

// planSparseVector chooses the sparse column kernel for solving plan pl
// into out and, when it picks the reach walks, fills out.sv's reach
// lists and cross-term table. The choice depends only on the template
// and the plan's slots, never on the worker count or on timing, so
// results stay bit-identical at every worker count. Dense engines skip
// it.
func (e *Engine) planSparseVector(pl *Plan, out *Batch) {
	p := &out.sv
	p.on = false
	if !e.sparseColumn() {
		return
	}
	sym := e.tmpl.sparse.sym
	nd := len(pl.distinct)
	budget := sym.LUNNZ() * (1 + nd)
	// A stride sample of svSample slots first estimates the count, so a
	// batch it already rules out keeps the block solve having built
	// svSample reaches, not the most of them the exact count below builds
	// before it fails (a chain's reaches cost about as much to build as
	// the block solve the batch keeps).
	if nd > svSample {
		est := 0
		for k := 0; k < svSample; k++ {
			var c int
			p.lReach, p.uReach, c = e.reaches(p, pl, k*nd/svSample, p.lReach[:0], p.uReach[:0])
			est += c
		}
		if est*nd/svSample*svEntryCost > budget {
			return
		}
	}
	cost := 0
	p.lOff = sliceutil.Grow(p.lOff, nd+2)
	p.uOff = sliceutil.Grow(p.uOff, nd+2)
	lr, ur := p.lReach[:0], p.uReach[:0]
	for zi := 0; zi <= nd; zi++ {
		p.lOff[zi], p.uOff[zi] = len(lr), len(ur)
		var c int
		lr, ur, c = e.reaches(p, pl, zi, lr, ur)
		p.lReach, p.uReach = lr, ur
		cost += c
		if cost*svEntryCost > budget {
			return
		}
	}
	p.lOff[nd+1], p.uOff[nd+1] = len(lr), len(ur)
	p.planCross(pl)
	p.on = true
}

// reaches appends position zi's L and U reaches — distinct slot zi's,
// from its u and v, or at zi == len(pl.distinct) b's and the output's —
// to lr and ur, and returns them with the visits walks over both make:
// factor entries plus reach rows.
func (e *Engine) reaches(p *svPlan, pl *Plan, zi int, lr, ur []int32) ([]int32, []int32, int) {
	t := e.tmpl
	sym := t.sparse.sym
	l0, u0 := len(lr), len(ur)
	seeds := p.seeds[:0]
	if zi < len(pl.distinct) {
		for _, ue := range t.slots[pl.distinct[zi]].u {
			seeds = append(seeds, int32(sym.PermRow(ue.idx)))
		}
	} else {
		for i, v := range t.b {
			if v != 0 {
				seeds = append(seeds, int32(sym.PermRow(i)))
			}
		}
	}
	lr, cl := p.reacher.LowerReach(sym, lr, seeds)
	seeds = seeds[:0]
	if zi < len(pl.distinct) {
		for _, ve := range t.slots[pl.distinct[zi]].v {
			seeds = append(seeds, int32(sym.PermCol(ve.idx)))
		}
	} else if e.outIdx >= 0 {
		seeds = append(seeds, int32(sym.PermCol(e.outIdx)))
	}
	ur, cu := p.reacher.UpperReach(sym, ur, seeds)
	p.seeds = seeds
	return lr, ur, cl + cu + len(lr) - l0 + len(ur) - u0
}

// planCross maps every ordered part pair (a, b) of the plan's rank-k
// items to an entry of the cross-term table p.pairs, once per solve and
// in time linear in the pairs: the pairs are bucketed by z_a, and each
// bucket numbers its first sight of every z_b.
func (p *svPlan) planCross(pl *Plan) {
	nd := len(pl.distinct)
	nitems := len(pl.off) - 1
	p.pairs = p.pairs[:0]
	p.crossOff = sliceutil.Grow(p.crossOff, nitems+1)
	bucket := sliceutil.Grow(p.bucket, nd+1)
	clear(bucket)
	at := p.crossAt[:0]
	for fi := 0; fi < nitems; fi++ {
		p.crossOff[fi] = len(at)
		lo, hi := pl.off[fi], pl.off[fi+1]
		if hi-lo < 2 {
			continue
		}
		for a := lo; a < hi; a++ {
			bucket[pl.zSlot[pl.partSlot[a]]+1] += hi - lo - 1
			for b := lo; b < hi; b++ {
				at = append(at, -1)
			}
		}
	}
	p.crossOff[nitems] = len(at)
	p.crossAt, p.bucket = at, bucket
	if len(at) == 0 {
		return
	}
	for z := 0; z < nd; z++ {
		bucket[z+1] += bucket[z]
	}
	// ent holds (crossAt position, z_b) per pair, bucketed by z_a;
	// bucket[z] runs as z's fill cursor and ends at its bucket's end, the
	// next bucket's start.
	ent := sliceutil.Grow(p.ent, 2*bucket[nd])
	for fi := 0; fi < nitems; fi++ {
		lo, hi := pl.off[fi], pl.off[fi+1]
		if k := hi - lo; k >= 2 {
			for a := 0; a < k; a++ {
				za := pl.zSlot[pl.partSlot[lo+a]]
				for b := 0; b < k; b++ {
					if b != a {
						e := 2 * bucket[za]
						ent[e] = int32(p.crossOff[fi] + a*k + b)
						ent[e+1] = int32(pl.zSlot[pl.partSlot[lo+b]])
						bucket[za]++
					}
				}
			}
		}
	}
	copy(bucket[1:], bucket[:nd])
	bucket[0] = 0
	seen := sliceutil.Grow(p.seen, nd)
	idx := sliceutil.Grow(p.idx, nd)
	for i := range seen {
		seen[i] = -1
	}
	for za := 0; za < nd; za++ {
		for e := 2 * bucket[za]; e < 2*bucket[za+1]; e += 2 {
			pos, zb := ent[e], ent[e+1]
			if seen[zb] != int32(za) {
				seen[zb] = int32(za)
				idx[zb] = int32(len(p.pairs))
				p.pairs = append(p.pairs, int64(za)<<32|int64(zb))
			}
			at[pos] = idx[zb]
		}
	}
	p.ent, p.seen, p.idx = ent, seen, idx
}

// fitSparseVector grows a worker's sparse-vector scratch to out's
// plan over nd distinct slots. The dense half-solve vectors are zero
// between uses (every walk clears what it touched), so they are only
// ever allocated zeroed.
func (ws *workspace) fitSparseVector(n, nd int, out *Batch) {
	ws.svVtx0 = sliceutil.Grow(ws.svVtx0, nd)
	ws.svVtz = sliceutil.Grow(ws.svVtz, nd)
	ws.svZout = sliceutil.Grow(ws.svZout, nd)
	ws.svCross = sliceutil.Grow(ws.svCross, len(out.sv.pairs))
	if len(ws.svY) < n*fbStride {
		ws.svY = make([]float64, n*fbStride)
		ws.svW = make([]float64, n*fbStride)
		ws.svYb = make([]float64, n*fbStride)
		ws.svWo = make([]float64, n*fbStride)
	}
	if len(out.sv.pairs) > 0 {
		ws.svYPack = sliceutil.Grow(ws.svYPack, len(out.sv.lReach)*fbStride)
		ws.svWPack = sliceutil.Grow(ws.svWPack, len(out.sv.uReach)*fbStride)
	}
}

// readGroup computes every correction read of the cached frequency
// group, all FreqBlock planes per walk: x0[out] = w_outᵀy_b, and per
// distinct slot vᵀx0 = w_vᵀy_b, vᵀz = w_vᵀy_u and z[out] = w_outᵀy_u,
// then the plan's cross terms v_aᵀz_b = w_{v_a}ᵀy_{u_b}. A plane whose
// refactorization failed computes garbage in its own lanes only; its
// column never reads them.
func (e *Engine) readGroup(ws *workspace, pl *Plan, out *Batch) {
	t := e.tmpl
	sym := t.sparse.sym
	br := &ws.bref
	p := &out.sv
	nd := len(pl.distinct)
	y, w, yb, wo := ws.svY, ws.svW, ws.svYb, ws.svWo
	rb := p.lReach[p.lOff[nd]:p.lOff[nd+1]]
	ro := p.uReach[p.uOff[nd]:p.uOff[nd+1]]
	for i, v := range t.b {
		if v != 0 {
			numeric.SeedBlock(yb, sym.PermRow(i), v)
		}
	}
	br.LowerSolve(sym, yb, rb)
	if e.outIdx >= 0 {
		numeric.SeedBlock(wo, sym.PermCol(e.outIdx), 1)
		br.UpperTSolve(sym, wo, ro)
	}
	numeric.DotBlock(&ws.svX0, wo, yb, ro, false)
	cross := len(p.pairs) > 0
	for zi, si := range pl.distinct {
		sl := &t.slots[si]
		rl := p.lReach[p.lOff[zi]:p.lOff[zi+1]]
		ru := p.uReach[p.uOff[zi]:p.uOff[zi+1]]
		for _, ue := range sl.u {
			numeric.SeedBlock(y, sym.PermRow(ue.idx), ue.w)
		}
		for _, ve := range sl.v {
			numeric.SeedBlock(w, sym.PermCol(ve.idx), ve.w)
		}
		br.LowerSolve(sym, y, rl)
		br.UpperTSolve(sym, w, ru)
		numeric.DotBlock2(&ws.svVtz[zi], &ws.svVtx0[zi], w, y, yb, ru)
		numeric.DotBlock(&ws.svZout[zi], wo, y, rl, false)
		if cross {
			numeric.GatherBlock(ws.svYPack[p.lOff[zi]*fbStride:], y, rl)
			numeric.GatherBlock(ws.svWPack[p.uOff[zi]*fbStride:], w, ru)
		}
		numeric.ClearBlock(y, rl)
		numeric.ClearBlock(w, ru)
	}
	// Cross terms, grouped by z_a: w_{v_a} is scattered back once per run
	// and dotted against each packed y_{u_b}.
	for k := 0; k < len(p.pairs); {
		za := int(p.pairs[k] >> 32)
		ru := p.uReach[p.uOff[za]:p.uOff[za+1]]
		numeric.ScatterBlock(w, ws.svWPack[p.uOff[za]*fbStride:], ru)
		for ; k < len(p.pairs) && int(p.pairs[k]>>32) == za; k++ {
			zb := int(p.pairs[k] & (1<<32 - 1))
			rl := p.lReach[p.lOff[zb]:p.lOff[zb+1]]
			numeric.DotBlock(&ws.svCross[k], ws.svYPack[p.lOff[zb]*fbStride:], w, rl, true)
		}
		numeric.ClearBlock(w, ru)
	}
	numeric.ClearBlock(yb, rb)
	numeric.ClearBlock(wo, ro)
}
