package numeric

import (
	"fmt"

	"repro/internal/sliceutil"
)

// Frequency-blocked sparse refactorization.
//
// A dictionary build refactors the same symbolic pattern once per
// frequency: the values change (G + jωC), the elimination schedule does
// not. The scalar walk therefore pays its per-entry overhead — the
// cols[] index load, loop control, bounds checks, and the cache miss on
// the scattered work-row position — once per frequency. FactorLanes
// eliminates FreqBlock frequency planes in a single symbolic walk over
// an interleaved layout, so that per-entry overhead is paid once per
// FreqBlock frequencies:
//
//   - values:        bv[t*2F + f] (re), bv[t*2F + F + f] (im) — plane f
//     is lane f of each position's stripe, and one 64-byte line holds
//     all planes of a position. Callers stamp their inputs straight
//     into these lanes (Lanes), and the walk factors them in place: row
//     i's inputs are scattered into the work row before its factors are
//     gathered back over them, so during the walk rows above i hold
//     factors and rows from i on hold inputs. The update loop reads
//     only rows above i, streaming them contiguously;
//   - work row:      bw[c*2F ...] in the same layout, so the scattered
//     update touches one line where the scalar walk touches one per
//     frequency;
//   - inverse diag:  bd[k*2F ...] likewise.
//
// Per-plane arithmetic is the exact scalar recurrence in the exact
// scalar order, so each plane's factors match RefactorReuse up to the
// sign of exact zeros: where the scalar walk skips a pivot whose
// work-row value is zero, the blocked walk (which only skips when every
// plane is zero there) multiplies through by that zero, which can flip
// a result of exactly 0 to -0 but cannot change any other value. The
// factors stay interleaved — the sparse-vector half-solves
// (sparsevec.go) walk them there — and CopyOut copies one plane into an
// ordinary SparseLU only when a caller needs its full solves or a
// partial-refactorization base, so solves, guards, and fallbacks are
// untouched. On amd64 with AVX the row elimination runs in the assembly
// kernel fbEliminateRowAVX, and the half-solves and their dots in the
// kernels beside it (freqblock_amd64.s).
//
// Planes fail independently: a singular pivot on one frequency is
// recorded (first failing row, same row the scalar walk would report)
// and that plane's lanes carry on harmlessly — non-finite values cannot
// cross lanes because no arithmetic mixes planes — while the other
// frequencies factor to completion.

// FreqBlock is the number of frequency planes FactorLanes eliminates
// per symbolic walk. 4 planes × re/im = 8 float64 = one cache line per
// matrix position.
const FreqBlock = 4

// fbStride is the float64 stride per matrix position in the interleaved
// planes: FreqBlock reals then FreqBlock imaginaries.
const fbStride = 2 * FreqBlock

// BlockRefactorer owns the interleaved storage for frequency-blocked
// refactorization. The zero value is ready; a worker that refactors
// with the same receiver every group allocates nothing in steady state.
type BlockRefactorer struct {
	bv []float64 // interleaved values along sym.cols: inputs, factored in place
	bd []float64 // interleaved inverse diagonal per row
	bw []float64 // interleaved dense work row (all-zero between calls)
}

// Lanes sizes the interleaved value storage for sym and returns it for
// the caller to fill with FreqBlock planes along sym's compiled pattern:
// plane f's value at position t is re at [t*2F + f] and im at
// [t*2F + F + f] (F = FreqBlock), fill positions zero. FactorLanes then
// factors it in place. Its contents on return are unspecified.
func (b *BlockRefactorer) Lanes(sym *SparseSymbolic) []float64 {
	b.bv = sliceutil.Grow(b.bv, len(sym.cols)*fbStride)
	return b.bv
}

// RefactorBlock refactors FreqBlock value-plane sets over one shared
// symbolic pattern in a single interleaved elimination walk. ares[f] and
// aims[f] are plane f's values along sym's compiled pattern, exactly as
// RefactorReuse takes them; lus[f] receives plane f's factorization and
// is afterwards indistinguishable from one produced by RefactorReuse on
// that plane (same factors under ==, same guard, ready for SolveBlock).
// errs[f] is plane f's outcome under the RefactorReuse error contract —
// planes succeed and fail independently. It loads the planes into the
// lanes, runs FactorLanes and copies every plane out; callers that stamp
// into Lanes directly skip the load, and copy out only the planes they
// read.
func (b *BlockRefactorer) RefactorBlock(sym *SparseSymbolic, lus *[FreqBlock]SparseLU, ares, aims *[FreqBlock][]float64) (errs [FreqBlock]error) {
	bad := false
	for f := 0; f < FreqBlock; f++ {
		if errs[f] = checkPlanes(sym, ares[f], aims[f]); errs[f] != nil {
			bad = true
		}
	}
	if bad {
		return errs
	}
	lanes := b.Lanes(sym)
	a0re, a1re, a2re, a3re := ares[0], ares[1], ares[2], ares[3]
	a0im, a1im, a2im, a3im := aims[0], aims[1], aims[2], aims[3]
	for t := range a0re {
		l := lanes[t*fbStride : t*fbStride+fbStride : t*fbStride+fbStride]
		l[0], l[1], l[2], l[3] = a0re[t], a1re[t], a2re[t], a3re[t]
		l[4], l[5], l[6], l[7] = a0im[t], a1im[t], a2im[t], a3im[t]
	}
	errs = b.FactorLanes(sym, lus)
	for f := range lus {
		b.CopyOut(f, &lus[f])
	}
	return errs
}

// FactorLanes factors the FreqBlock planes held in the lanes (see Lanes)
// in place, in one symbolic walk over sym. errs[f] is plane f's outcome
// under the RefactorReuse error contract; an all-zero plane rides along
// dead. lus[f] is prepared as plane f's factorization — pattern and
// pivot guard set — but its values stay in the lanes, and its value
// slices are left empty until CopyOut fills them, so a plane read
// without a copy fails loudly instead of serving stale factors. The
// lanes hold the factors until the next Lanes call, for CopyOut and the
// sparse-vector half-solves.
func (b *BlockRefactorer) FactorLanes(sym *SparseSymbolic, lus *[FreqBlock]SparseLU) (errs [FreqBlock]error) {
	n := sym.n
	nnz := len(sym.cols)
	if len(b.bv) != nnz*fbStride {
		for f := range errs {
			errs[f] = fmt.Errorf("numeric: factor lanes of %d values, pattern has %d entries: %w", len(b.bv)/fbStride, nnz, ErrDimension)
		}
		return errs
	}
	bv := b.bv
	// Each plane's guard derives from its own input magnitude, exactly
	// as prepRefactor derives it.
	var amax2, guard2 [FreqBlock]float64
	for tb := 0; tb < len(bv); tb += fbStride {
		p := bv[tb : tb+fbStride : tb+fbStride]
		for f := 0; f < FreqBlock; f++ {
			if m := p[f]*p[f] + p[FreqBlock+f]*p[FreqBlock+f]; m > amax2[f] {
				amax2[f] = m
			}
		}
	}
	for f := range lus {
		if amax2[f] == 0 {
			errs[f] = fmt.Errorf("numeric: refactor of all-zero matrix: %w", ErrSingular)
		} else {
			guard2[f] = pivotGuard * pivotGuard * amax2[f]
		}
		lu := &lus[f]
		lu.sym, lu.guard2 = sym, guard2[f]
		lu.vre, lu.vim = lu.vre[:0], lu.vim[:0]
		lu.ire, lu.iim = lu.ire[:0], lu.iim[:0]
	}

	if cap(b.bd) < n*fbStride {
		b.bd = make([]float64, n*fbStride)
		b.bw = make([]float64, n*fbStride)
	}
	b.bd = b.bd[:n*fbStride]
	b.bw = b.bw[:n*fbStride]
	cols, rs, dp := sym.cols, sym.rowStart, sym.diagPos
	bd, bw := b.bd, b.bw

	for i := 0; i < n; i++ {
		lo, hi := rs[i], rs[i+1]
		// Scatter row i's inputs, every plane at once, into the
		// interleaved work row.
		for t := lo; t < hi; t++ {
			cb, tb := cols[t]*fbStride, t*fbStride
			wc := bw[cb : cb+fbStride : cb+fbStride]
			uc := bv[tb : tb+fbStride : tb+fbStride]
			wc[0], wc[1], wc[2], wc[3] = uc[0], uc[1], uc[2], uc[3]
			wc[4], wc[5], wc[6], wc[7] = uc[4], uc[5], uc[6], uc[7]
		}
		// Eliminate ascending over the row's L pattern; one index walk
		// serves every plane. On amd64 with AVX the whole walk runs in
		// the assembly kernel — four planes per 256-bit lane, the same
		// IEEE operations in the same order as the loop below.
		if fbAVX {
			if dpi := dp[i]; dpi > lo {
				fbEliminateRowAVX(&bw[0], &bv[0], &bd[0], &cols[0], &dp[0], &rs[0], lo, dpi)
			}
			goto gather
		}
		for t := lo; t < dp[i]; t++ {
			k := cols[t]
			kb := k * fbStride
			wk := bw[kb : kb+fbStride : kb+fbStride]
			ar0, ar1, ar2, ar3 := wk[0], wk[1], wk[2], wk[3]
			ai0, ai1, ai2, ai3 := wk[4], wk[5], wk[6], wk[7]
			if ar0 == 0 && ai0 == 0 && ar1 == 0 && ai1 == 0 &&
				ar2 == 0 && ai2 == 0 && ar3 == 0 && ai3 == 0 {
				continue
			}
			rk := bd[kb : kb+fbStride : kb+fbStride]
			m0r := ar0*rk[0] - ai0*rk[4]
			m0i := ar0*rk[4] + ai0*rk[0]
			m1r := ar1*rk[1] - ai1*rk[5]
			m1i := ar1*rk[5] + ai1*rk[1]
			m2r := ar2*rk[2] - ai2*rk[6]
			m2i := ar2*rk[6] + ai2*rk[2]
			m3r := ar3*rk[3] - ai3*rk[7]
			m3i := ar3*rk[7] + ai3*rk[3]
			wk[0], wk[4] = m0r, m0i
			wk[1], wk[5] = m1r, m1i
			wk[2], wk[6] = m2r, m2i
			wk[3], wk[7] = m3r, m3i
			for u := dp[k] + 1; u < rs[k+1]; u++ {
				cb := cols[u] * fbStride
				ub := u * fbStride
				uc := bv[ub : ub+fbStride : ub+fbStride]
				wc := bw[cb : cb+fbStride : cb+fbStride]
				ur, ui := uc[0], uc[4]
				wc[0] -= m0r*ur - m0i*ui
				wc[4] -= m0r*ui + m0i*ur
				ur, ui = uc[1], uc[5]
				wc[1] -= m1r*ur - m1i*ui
				wc[5] -= m1r*ui + m1i*ur
				ur, ui = uc[2], uc[6]
				wc[2] -= m2r*ur - m2i*ui
				wc[6] -= m2r*ui + m2i*ur
				ur, ui = uc[3], uc[7]
				wc[3] -= m3r*ur - m3i*ui
				wc[7] -= m3r*ui + m3i*ur
			}
		}
		// Gather the finished row over its inputs (read by later update
		// loops), clearing the work row behind.
	gather:
		for t := lo; t < hi; t++ {
			cb, tb := cols[t]*fbStride, t*fbStride
			wc := bw[cb : cb+fbStride : cb+fbStride]
			uc := bv[tb : tb+fbStride : tb+fbStride]
			uc[0], uc[1], uc[2], uc[3] = wc[0], wc[1], wc[2], wc[3]
			uc[4], uc[5], uc[6], uc[7] = wc[4], wc[5], wc[6], wc[7]
			wc[0], wc[1], wc[2], wc[3] = 0, 0, 0, 0
			wc[4], wc[5], wc[6], wc[7] = 0, 0, 0, 0
		}
		// Per-plane pivot check and reciprocal. A failing plane records
		// the same row the scalar walk would abort on and keeps riding —
		// a non-finite reciprocal stays inside its own lanes.
		db := dp[i] * fbStride
		ib := i * fbStride
		for f := 0; f < FreqBlock; f++ {
			dr, di := bv[db+f], bv[db+FreqBlock+f]
			d2 := dr*dr + di*di
			if d2 == 0 || d2 < guard2[f] {
				if errs[f] == nil {
					if d2 == 0 {
						errs[f] = fmt.Errorf("numeric: zero pivot at row %d: %w", i, ErrSingular)
					} else {
						errs[f] = fmt.Errorf("numeric: pivot at row %d below static-pivot guard: %w", i, ErrSingular)
					}
				}
			}
			bd[ib+f], bd[ib+FreqBlock+f] = recip(dr, di)
		}
	}
	return errs
}

// CopyOut copies plane f of the last FactorLanes — factors and inverse
// diagonal — out of the lanes into lu, which that walk prepared as plane
// f's factorization. lu is then ready for SolveBlock and as a
// PartialRefactor base.
func (b *BlockRefactorer) CopyOut(f int, lu *SparseLU) {
	bv, bd := b.bv, b.bd
	lu.vre = sliceutil.Grow(lu.vre, len(bv)/fbStride)
	lu.vim = sliceutil.Grow(lu.vim, len(bv)/fbStride)
	lu.ire = sliceutil.Grow(lu.ire, len(bd)/fbStride)
	lu.iim = sliceutil.Grow(lu.iim, len(bd)/fbStride)
	vre, vim := lu.vre, lu.vim
	for t := range vre {
		vre[t], vim[t] = bv[t*fbStride+f], bv[t*fbStride+FreqBlock+f]
	}
	ire, iim := lu.ire, lu.iim
	for i := range ire {
		ire[i], iim[i] = bd[i*fbStride+f], bd[i*fbStride+FreqBlock+f]
	}
}
