package numeric

import "slices"

// Sparse-vector half-solves (Tinney, Brandwajn & Chan, "Sparse vector
// methods", IEEE Trans. PAS 1985).
//
// A caller that reads only a few entries of A⁻¹q — pᵀA⁻¹q for a few
// sparse p and q — need not solve for whole vectors. SparseLU factors
// Pᵣ A P_cᵀ = LU, so
//
//	pᵀA⁻¹q = wᵀy,   y = L⁻¹q′,   w = U⁻ᵀp′,
//
// with no conjugation: a nonzero of q at original row o seeds q′ at
// PermRow(o), and a nonzero of p at o seeds p′ at PermCol(o). y is
// nonzero only on the closure of q′'s seeds through L's column graph
// (row i is reached from k when L[i][k] is structural), and w only on
// the closure of p′'s seeds through U's row graph. Pivots are static, so
// both closures are fixed by the pattern; sorted ascending, each is a
// valid solve order (Gilbert & Peierls, SISC 1988). A half-solve then
// walks only the factor entries of its reach instead of the whole
// pattern.
//
// The walks run on the interleaved planes of a BlockRefactorer, the same
// layout its elimination uses: one index load serves all FreqBlock
// frequency planes of a position. Vectors are interleaved the same way,
// n·2·FreqBlock float64s indexed by permuted row — lane f of position i
// is re at [i·2F + f] and im at [i·2F + F + f] — so every plane of a
// group is solved in one walk.

// lowerIndex is L's pattern by columns: column k's strictly lower
// entries are ent[start[k]:start[k+1]], by ascending row.
type lowerIndex struct {
	start []int32
	ent   []lowerEntry
}

// lowerEntry is one structural L[row][k]: its permuted row and its
// position along the compiled pattern.
type lowerEntry struct {
	row, pos int32
}

// lower returns the pattern's L-by-columns index, building it on first
// use. Only sparse-vector solves need it, so Compile-time analysis does
// not pay for it; it holds at most LUNNZ() − n entries.
func (s *SparseSymbolic) lower() *lowerIndex {
	s.lowerOnce.Do(func() {
		n := s.n
		li := &lowerIndex{start: make([]int32, n+1)}
		for i := 0; i < n; i++ {
			for t := s.rowStart[i]; t < s.diagPos[i]; t++ {
				li.start[s.cols[t]+1]++
			}
		}
		for k := 0; k < n; k++ {
			li.start[k+1] += li.start[k]
		}
		li.ent = make([]lowerEntry, li.start[n])
		next := make([]int32, n)
		copy(next, li.start[:n])
		for i := 0; i < n; i++ {
			for t := s.rowStart[i]; t < s.diagPos[i]; t++ {
				k := s.cols[t]
				li.ent[next[k]] = lowerEntry{row: int32(i), pos: int32(t)}
				next[k]++
			}
		}
		s.lidx = li
	})
	return s.lidx
}

// PermRow returns the permuted row of original row o: where a
// right-hand-side entry at o seeds L⁻¹'s input.
func (s *SparseSymbolic) PermRow(o int) int { return s.invRow[o] }

// PermCol returns the permuted column of original column o: where an
// entry of p at o seeds U⁻ᵀ's input.
func (s *SparseSymbolic) PermCol(o int) int { return s.invCol[o] }

// Reacher computes reaches over a pattern's factor graphs. The zero
// value is ready; its scratch grows to the pattern order on first use
// and is reused, so steady-state reaches allocate nothing once dst has
// capacity.
type Reacher struct {
	mark  []uint32
	gen   uint32
	stack []int32
}

// LowerReach appends to dst the closure of the permuted rows seeds
// through L's column graph, sorted ascending — the rows a lower
// half-solve from those seeds touches — and returns it with the number
// of factor entries such a walk visits. The seeds are part of the
// closure.
func (r *Reacher) LowerReach(sym *SparseSymbolic, dst, seeds []int32) ([]int32, int) {
	li := sym.lower()
	gen, mark := r.begin(sym.n)
	base := len(dst)
	stack := r.stack[:0]
	for _, v := range seeds {
		if mark[v] != gen {
			mark[v] = gen
			dst = append(dst, v)
			stack = append(stack, v)
		}
	}
	visits := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		ents := li.ent[li.start[v]:li.start[v+1]]
		visits += len(ents)
		for _, e := range ents {
			if mark[e.row] != gen {
				mark[e.row] = gen
				dst = append(dst, e.row)
				stack = append(stack, e.row)
			}
		}
	}
	r.stack = stack
	slices.Sort(dst[base:])
	return dst, visits
}

// UpperReach is LowerReach through U's row graph (column i is reached
// from j when U[j][i] is structural, i > j): the rows an upper-transpose
// half-solve from the permuted-column seeds touches.
func (r *Reacher) UpperReach(sym *SparseSymbolic, dst, seeds []int32) ([]int32, int) {
	cols, rs, dp := sym.cols, sym.rowStart, sym.diagPos
	gen, mark := r.begin(sym.n)
	base := len(dst)
	stack := r.stack[:0]
	for _, v := range seeds {
		if mark[v] != gen {
			mark[v] = gen
			dst = append(dst, v)
			stack = append(stack, v)
		}
	}
	visits := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		visits += rs[v+1] - dp[v] - 1
		for _, c := range cols[dp[v]+1 : rs[v+1]] {
			if mark[c] != gen {
				mark[c] = gen
				dst = append(dst, int32(c))
				stack = append(stack, int32(c))
			}
		}
	}
	r.stack = stack
	slices.Sort(dst[base:])
	return dst, visits
}

// begin starts a new visit generation over n nodes and returns it with
// the mark array.
func (r *Reacher) begin(n int) (uint32, []uint32) {
	if len(r.mark) < n {
		r.mark = make([]uint32, n)
		r.gen = 0
	}
	r.gen++
	if r.gen == 0 { // wrapped: stale marks could alias the new generation
		clear(r.mark)
		r.gen = 1
	}
	return r.gen, r.mark
}

// LowerSolve overwrites the interleaved vector y (n·2·FreqBlock, by
// permuted row) with L⁻¹y for every plane of the last RefactorBlock on
// sym. y must be zero outside reach, which must hold the closure of y's
// nonzeros (LowerReach), sorted ascending; y stays zero outside it.
func (b *BlockRefactorer) LowerSolve(sym *SparseSymbolic, y []float64, reach []int32) {
	li := sym.lower()
	bv := b.bv
	for _, k := range reach {
		kb := int(k) * fbStride
		yk := y[kb : kb+fbStride : kb+fbStride]
		a0r, a1r, a2r, a3r := yk[0], yk[1], yk[2], yk[3]
		a0i, a1i, a2i, a3i := yk[4], yk[5], yk[6], yk[7]
		if a0r == 0 && a0i == 0 && a1r == 0 && a1i == 0 &&
			a2r == 0 && a2i == 0 && a3r == 0 && a3i == 0 {
			continue
		}
		for _, e := range li.ent[li.start[k]:li.start[k+1]] {
			tb := int(e.pos) * fbStride
			ib := int(e.row) * fbStride
			m := bv[tb : tb+fbStride : tb+fbStride]
			yi := y[ib : ib+fbStride : ib+fbStride]
			mr, mi := m[0], m[4]
			yi[0] -= mr*a0r - mi*a0i
			yi[4] -= mr*a0i + mi*a0r
			mr, mi = m[1], m[5]
			yi[1] -= mr*a1r - mi*a1i
			yi[5] -= mr*a1i + mi*a1r
			mr, mi = m[2], m[6]
			yi[2] -= mr*a2r - mi*a2i
			yi[6] -= mr*a2i + mi*a2r
			mr, mi = m[3], m[7]
			yi[3] -= mr*a3r - mi*a3i
			yi[7] -= mr*a3i + mi*a3r
		}
	}
}

// UpperTSolve overwrites the interleaved vector w with U⁻ᵀw for every
// plane of the last RefactorBlock on sym, under LowerSolve's contract
// with reach from UpperReach.
func (b *BlockRefactorer) UpperTSolve(sym *SparseSymbolic, w []float64, reach []int32) {
	bv, bd := b.bv, b.bd
	cols, rs, dp := sym.cols, sym.rowStart, sym.diagPos
	for _, j := range reach {
		jb := int(j) * fbStride
		wj := w[jb : jb+fbStride : jb+fbStride]
		if wj[0] == 0 && wj[4] == 0 && wj[1] == 0 && wj[5] == 0 &&
			wj[2] == 0 && wj[6] == 0 && wj[3] == 0 && wj[7] == 0 {
			continue
		}
		// w[j] /= U[j][j], by the stored inverse diagonal.
		d := bd[jb : jb+fbStride : jb+fbStride]
		x0r := wj[0]*d[0] - wj[4]*d[4]
		x0i := wj[0]*d[4] + wj[4]*d[0]
		x1r := wj[1]*d[1] - wj[5]*d[5]
		x1i := wj[1]*d[5] + wj[5]*d[1]
		x2r := wj[2]*d[2] - wj[6]*d[6]
		x2i := wj[2]*d[6] + wj[6]*d[2]
		x3r := wj[3]*d[3] - wj[7]*d[7]
		x3i := wj[3]*d[7] + wj[7]*d[3]
		wj[0], wj[1], wj[2], wj[3] = x0r, x1r, x2r, x3r
		wj[4], wj[5], wj[6], wj[7] = x0i, x1i, x2i, x3i
		for t := dp[j] + 1; t < rs[j+1]; t++ {
			tb := t * fbStride
			ib := cols[t] * fbStride
			m := bv[tb : tb+fbStride : tb+fbStride]
			wi := w[ib : ib+fbStride : ib+fbStride]
			mr, mi := m[0], m[4]
			wi[0] -= mr*x0r - mi*x0i
			wi[4] -= mr*x0i + mi*x0r
			mr, mi = m[1], m[5]
			wi[1] -= mr*x1r - mi*x1i
			wi[5] -= mr*x1i + mi*x1r
			mr, mi = m[2], m[6]
			wi[2] -= mr*x2r - mi*x2i
			wi[6] -= mr*x2i + mi*x2r
			mr, mi = m[3], m[7]
			wi[3] -= mr*x3r - mi*x3i
			wi[7] -= mr*x3i + mi*x3r
		}
	}
}

// SeedBlock adds the complex value c to position i of the interleaved
// vector v in every plane — a frequency-independent right-hand-side
// entry.
func SeedBlock(v []float64, i int, c complex128) {
	b := v[i*fbStride : i*fbStride+fbStride : i*fbStride+fbStride]
	r, m := real(c), imag(c)
	b[0], b[1], b[2], b[3] = b[0]+r, b[1]+r, b[2]+r, b[3]+r
	b[4], b[5], b[6], b[7] = b[4]+m, b[5]+m, b[6]+m, b[7]+m
}

// ClearBlock zeroes the positions idx of the interleaved vector v.
func ClearBlock(v []float64, idx []int32) {
	for _, i := range idx {
		clear(v[int(i)*fbStride : int(i)*fbStride+fbStride])
	}
}

// GatherBlock copies the positions idx of the interleaved vector v, in
// order, into the packed dst (len(idx)·2·FreqBlock).
func GatherBlock(dst, v []float64, idx []int32) {
	for k, i := range idx {
		copy(dst[k*fbStride:k*fbStride+fbStride], v[int(i)*fbStride:int(i)*fbStride+fbStride])
	}
}

// ScatterBlock is GatherBlock's inverse: packed src back into the
// positions idx of v.
func ScatterBlock(v, src []float64, idx []int32) {
	for k, i := range idx {
		copy(v[int(i)*fbStride:int(i)*fbStride+fbStride], src[k*fbStride:k*fbStride+fbStride])
	}
}

// DotBlock sets dst[f] to plane f's Σ_{i∈idx} a[i]·b[i] over two
// interleaved vectors (plain products, no conjugation). With packed set,
// a is packed along idx (GatherBlock) instead: its k-th position pairs
// with b[idx[k]].
func DotBlock(dst *[FreqBlock]complex128, a, b []float64, idx []int32, packed bool) {
	var s0r, s0i, s1r, s1i, s2r, s2i, s3r, s3i float64
	for k, i := range idx {
		ib := int(i) * fbStride
		ab := ib
		if packed {
			ab = k * fbStride
		}
		x := a[ab : ab+fbStride : ab+fbStride]
		y := b[ib : ib+fbStride : ib+fbStride]
		s0r += x[0]*y[0] - x[4]*y[4]
		s0i += x[0]*y[4] + x[4]*y[0]
		s1r += x[1]*y[1] - x[5]*y[5]
		s1i += x[1]*y[5] + x[5]*y[1]
		s2r += x[2]*y[2] - x[6]*y[6]
		s2i += x[2]*y[6] + x[6]*y[2]
		s3r += x[3]*y[3] - x[7]*y[7]
		s3i += x[3]*y[7] + x[7]*y[3]
	}
	dst[0], dst[1] = complex(s0r, s0i), complex(s1r, s1i)
	dst[2], dst[3] = complex(s2r, s2i), complex(s3r, s3i)
}

// DotBlock2 is two DotBlocks sharing a: dst1 gets a·b1 and dst2 a·b2,
// in one pass over idx.
func DotBlock2(dst1, dst2 *[FreqBlock]complex128, a, b1, b2 []float64, idx []int32) {
	var p0r, p0i, p1r, p1i, p2r, p2i, p3r, p3i float64
	var q0r, q0i, q1r, q1i, q2r, q2i, q3r, q3i float64
	for _, i := range idx {
		ib := int(i) * fbStride
		x := a[ib : ib+fbStride : ib+fbStride]
		y := b1[ib : ib+fbStride : ib+fbStride]
		z := b2[ib : ib+fbStride : ib+fbStride]
		p0r += x[0]*y[0] - x[4]*y[4]
		p0i += x[0]*y[4] + x[4]*y[0]
		p1r += x[1]*y[1] - x[5]*y[5]
		p1i += x[1]*y[5] + x[5]*y[1]
		p2r += x[2]*y[2] - x[6]*y[6]
		p2i += x[2]*y[6] + x[6]*y[2]
		p3r += x[3]*y[3] - x[7]*y[7]
		p3i += x[3]*y[7] + x[7]*y[3]
		q0r += x[0]*z[0] - x[4]*z[4]
		q0i += x[0]*z[4] + x[4]*z[0]
		q1r += x[1]*z[1] - x[5]*z[5]
		q1i += x[1]*z[5] + x[5]*z[1]
		q2r += x[2]*z[2] - x[6]*z[6]
		q2i += x[2]*z[6] + x[6]*z[2]
		q3r += x[3]*z[3] - x[7]*z[7]
		q3i += x[3]*z[7] + x[7]*z[3]
	}
	dst1[0], dst1[1] = complex(p0r, p0i), complex(p1r, p1i)
	dst1[2], dst1[3] = complex(p2r, p2i), complex(p3r, p3i)
	dst2[0], dst2[1] = complex(q0r, q0i), complex(q1r, q1i)
	dst2[2], dst2[3] = complex(q2r, q2i), complex(q3r, q3i)
}
