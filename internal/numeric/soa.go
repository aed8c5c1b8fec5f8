package numeric

import (
	"fmt"
	"math"
)

// This file holds the structure-of-arrays (SoA) complex kernel layer:
// complex data split into flat re/im float64 planes so the hot loops —
// LU elimination sweeps and multi-RHS triangular solves — run over
// contiguous float64 slices instead of scalar complex128 values. The
// layout avoids complex division (runtime call) and cmplx.Abs (hypot
// call) in inner loops and lets one pass over the factored matrix
// amortize across a whole block of right-hand sides, which is where
// the frequency-sweep hot path of the engine spends its time.
//
// Layout contract: both SoAMatrix and Block are row-major with the row
// index contiguous over columns, i.e. element (i, j) lives at
// re[i*cols+j] / im[i*cols+j]. For a Block whose rows are system
// variables and whose columns are right-hand sides, row i's values
// across all RHS columns are therefore contiguous — the axpy of one
// triangular-sweep step touches two contiguous float64 runs per plane.

// SoAMatrix is a dense complex matrix stored as split re/im float64
// planes (row-major, same indexing as Matrix). The zero value is an
// empty matrix; use NewSoAMatrix to allocate a sized one.
type SoAMatrix struct {
	rows, cols int
	re, im     []float64
}

// NewSoAMatrix allocates an r-by-c zero SoA matrix.
func NewSoAMatrix(r, c int) *SoAMatrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("numeric: negative matrix dimension %dx%d", r, c))
	}
	return &SoAMatrix{rows: r, cols: c, re: make([]float64, r*c), im: make([]float64, r*c)}
}

// Add accumulates v into the element at row i, column j — the stamping
// primitive, mirroring Matrix.Add.
func (m *SoAMatrix) Add(i, j int, v complex128) {
	m.check(i, j)
	m.re[i*m.cols+j] += real(v)
	m.im[i*m.cols+j] += imag(v)
}

func (m *SoAMatrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("numeric: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Zero resets every element to 0 without reallocating.
func (m *SoAMatrix) Zero() {
	for i := range m.re {
		m.re[i] = 0
	}
	for i := range m.im {
		m.im[i] = 0
	}
}

// Block is a multi-right-hand-side block in SoA layout: rows are system
// variables, columns are right-hand sides, and row i's values across
// all columns are contiguous in each plane (re[i*cols : (i+1)*cols]).
// A Block owns its planes and is reusable: Reset reshapes it within the
// existing capacity, so a Block held across solves makes the steady
// state allocation-free. The zero Block is empty and ready for Reset.
type Block struct {
	rows, cols int
	re, im     []float64
}

// NewBlock allocates an r-by-c zero block.
func NewBlock(r, c int) *Block {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("numeric: negative block dimension %dx%d", r, c))
	}
	return &Block{rows: r, cols: c, re: make([]float64, r*c), im: make([]float64, r*c)}
}

// Reset reshapes the block to r-by-c, reusing the existing planes when
// they are large enough (contents become unspecified; callers overwrite
// or Zero). After one Reset at a given size, subsequent Resets at or
// below it never allocate.
func (b *Block) Reset(r, c int) {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("numeric: negative block dimension %dx%d", r, c))
	}
	n := r * c
	if cap(b.re) < n {
		b.re = make([]float64, n)
		b.im = make([]float64, n)
	}
	b.re = b.re[:n]
	b.im = b.im[:n]
	b.rows, b.cols = r, c
}

// Cols returns the number of columns (right-hand sides).
func (b *Block) Cols() int { return b.cols }

// Planes exposes the raw re/im planes under the documented layout
// contract — element (i, j) at index i*Cols()+j — for callers whose
// inner loops cannot afford per-element bounds checks (the engine's
// correction sweeps). The planes alias the block: writes are visible
// and Reset invalidates them.
func (b *Block) Planes() (re, im []float64) { return b.re, b.im }

// PlanesFor is Planes with the caller's assumed shape verified first:
// a raw-plane consumer states the (rows, cols) its index arithmetic was
// written for, and a disagreement with the block's actual shape comes
// back as an ErrDimension error at the boundary instead of silently
// misindexed rows deep inside a sweep. The stride of the returned
// planes is cols, exactly as assumed.
func (b *Block) PlanesFor(rows, cols int) (re, im []float64, err error) {
	if rows != b.rows || cols != b.cols {
		return nil, nil, fmt.Errorf("numeric: planes assumed %dx%d, block is %dx%d: %w", rows, cols, b.rows, b.cols, ErrDimension)
	}
	if len(b.re) != rows*cols || len(b.im) != rows*cols {
		return nil, nil, fmt.Errorf("numeric: block planes hold %d/%d values, want %d: %w", len(b.re), len(b.im), rows*cols, ErrDimension)
	}
	return b.re, b.im, nil
}

// Set assigns the element at row i, column j.
func (b *Block) Set(i, j int, v complex128) {
	b.check(i, j)
	b.re[i*b.cols+j] = real(v)
	b.im[i*b.cols+j] = imag(v)
}

func (b *Block) check(i, j int) {
	if i < 0 || i >= b.rows || j < 0 || j >= b.cols {
		panic(fmt.Sprintf("numeric: index (%d,%d) out of range %dx%d", i, j, b.rows, b.cols))
	}
}

// Zero resets every element to 0 without reallocating.
func (b *Block) Zero() {
	for i := range b.re {
		b.re[i] = 0
	}
	for i := range b.im {
		b.im[i] = 0
	}
}

// CopyFrom reshapes b to src's shape (reusing planes when possible) and
// copies src's contents.
func (b *Block) CopyFrom(src *Block) {
	b.Reset(src.rows, src.cols)
	copy(b.re, src.re)
	copy(b.im, src.im)
}

// SetColumn writes the complex vector v (length rows) into column j.
func (b *Block) SetColumn(j int, v []complex128) error {
	if len(v) != b.rows {
		return fmt.Errorf("numeric: set len-%d column into %d-row block: %w", len(v), b.rows, ErrDimension)
	}
	if j < 0 || j >= b.cols {
		return fmt.Errorf("numeric: column %d out of range %dx%d: %w", j, b.rows, b.cols, ErrDimension)
	}
	for i, x := range v {
		b.re[i*b.cols+j] = real(x)
		b.im[i*b.cols+j] = imag(x)
	}
	return nil
}

// swapRows exchanges rows i and p of both planes.
func (b *Block) swapRows(i, p int) {
	nc := b.cols
	ri, rp := b.re[i*nc:(i+1)*nc], b.re[p*nc:(p+1)*nc]
	for c := range ri {
		ri[c], rp[c] = rp[c], ri[c]
	}
	ii, ip := b.im[i*nc:(i+1)*nc], b.im[p*nc:(p+1)*nc]
	for c := range ii {
		ii[c], ip[c] = ip[c], ii[c]
	}
}

// recip returns the complex reciprocal 1/(a+bi) as (re, im), using the
// scaled (Smith) form so moderate magnitude spreads stay accurate.
func recip(a, b float64) (float64, float64) {
	if math.Abs(a) >= math.Abs(b) {
		r := b / a
		d := a + b*r
		return 1 / d, -r / d
	}
	r := a / b
	d := a*r + b
	return r / d, -1 / d
}

// SoALU is an LU factorization with partial pivoting over SoA planes:
// the float64-plane counterpart of LU, built for the blocked hot path.
// Factor with FactorSoAReuse (allocation-free in steady state), then
// solve whole multi-RHS blocks with SolveBlock.
//
// The factorization matches LU up to floating-point rounding: the pivot
// row chosen at each elimination step is the same (magnitudes are
// compared as re²+im², which orders identically to cmplx.Abs up to ties
// within one ulp), but elimination multipliers are formed by reciprocal
// multiplication instead of complex division, so factored entries can
// differ from LU's in the last bits. Solutions agree with the scalar
// path to well within 1e-9 relative on well-conditioned systems — the
// contract the engine's blocked-vs-scalar tests pin.
type SoALU struct {
	lu  *SoAMatrix
	piv []int // row i of the factored matrix came from row piv[i] of A
	swp []int // swap sequence: step k exchanged rows k and swp[k]
	n   int
}

// FactorSoAReuse factors a in place into the caller-owned f, reusing
// f's pivot storage: a worker that refactors into the same SoALU every
// round allocates nothing in steady state. a's contents are destroyed
// (they become the packed L/U factors); on error f is unusable until
// the next successful refactorization.
func FactorSoAReuse(f *SoALU, a *SoAMatrix) error {
	if a.rows != a.cols {
		return fmt.Errorf("numeric: factor %dx%d: %w", a.rows, a.cols, ErrDimension)
	}
	n := a.rows
	if cap(f.piv) < n {
		f.piv = make([]int, n)
		f.swp = make([]int, n)
	}
	*f = SoALU{lu: a, piv: f.piv[:n], swp: f.swp[:n], n: n}
	for i := range f.piv {
		f.piv[i] = i
	}
	re, im := a.re, a.im
	for k := 0; k < n; k++ {
		// Partial pivoting: largest squared modulus in column k at or
		// below the diagonal (same argmax as cmplx.Abs, no hypot call).
		p := k
		mx := re[k*n+k]*re[k*n+k] + im[k*n+k]*im[k*n+k]
		for i := k + 1; i < n; i++ {
			if m := re[i*n+k]*re[i*n+k] + im[i*n+k]*im[i*n+k]; m > mx {
				mx, p = m, i
			}
		}
		if mx == 0 {
			return fmt.Errorf("numeric: zero pivot at column %d: %w", k, ErrSingular)
		}
		f.swp[k] = p
		if p != k {
			rk, rp := re[k*n:k*n+n], re[p*n:p*n+n]
			for j := range rk {
				rk[j], rp[j] = rp[j], rk[j]
			}
			ik, ip := im[k*n:k*n+n], im[p*n:p*n+n]
			for j := range ik {
				ik[j], ip[j] = ip[j], ik[j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		ir, ii := recip(re[k*n+k], im[k*n+k])
		kr := re[k*n+k+1 : k*n+n]
		ki := im[k*n+k+1 : k*n+n]
		for i := k + 1; i < n; i++ {
			ar, ai := re[i*n+k], im[i*n+k]
			if ar == 0 && ai == 0 {
				continue
			}
			mr := ar*ir - ai*ii
			mi := ar*ii + ai*ir
			re[i*n+k], im[i*n+k] = mr, mi
			xr := re[i*n+k+1 : i*n+n]
			xi := im[i*n+k+1 : i*n+n]
			for j := range xr {
				r, m := kr[j], ki[j]
				xr[j] -= mr*r - mi*m
				xi[j] -= mr*m + mi*r
			}
		}
	}
	return nil
}

// SolveBlock solves A·X = B for every column of the block in place: B's
// columns are overwritten with the corresponding solutions. One forward
// and one back triangular sweep covers all right-hand sides, so the
// factored matrix is walked once per block instead of once per RHS.
func (f *SoALU) SolveBlock(blk *Block) error {
	if blk.rows != f.n {
		return fmt.Errorf("numeric: solve-block with %d rows, want %d: %w", blk.rows, f.n, ErrDimension)
	}
	n, nc := f.n, blk.cols
	if nc == 0 {
		return nil
	}
	// Apply the recorded row exchanges (in factorization order, so the
	// net effect is the pivot permutation).
	for k := 0; k < n; k++ {
		if p := f.swp[k]; p != k {
			blk.swapRows(k, p)
		}
	}
	lre, lim := f.lu.re, f.lu.im
	bre, bim := blk.re, blk.im
	// L·Y = P·B (L unit lower triangular): subtract m · row j from row i
	// across all columns, contiguous in both planes.
	for i := 1; i < n; i++ {
		xr := bre[i*nc : i*nc+nc]
		xi := bim[i*nc : i*nc+nc]
		for j := 0; j < i; j++ {
			mr, mi := lre[i*n+j], lim[i*n+j]
			if mr == 0 && mi == 0 {
				continue
			}
			yr := bre[j*nc : j*nc+nc]
			yi := bim[j*nc : j*nc+nc]
			for c := range xr {
				r, m := yr[c], yi[c]
				xr[c] -= mr*r - mi*m
				xi[c] -= mr*m + mi*r
			}
		}
	}
	// U·X = Y: same sweep upwards, then scale the row by 1/U[i][i].
	for i := n - 1; i >= 0; i-- {
		xr := bre[i*nc : i*nc+nc]
		xi := bim[i*nc : i*nc+nc]
		for j := i + 1; j < n; j++ {
			mr, mi := lre[i*n+j], lim[i*n+j]
			if mr == 0 && mi == 0 {
				continue
			}
			yr := bre[j*nc : j*nc+nc]
			yi := bim[j*nc : j*nc+nc]
			for c := range xr {
				r, m := yr[c], yi[c]
				xr[c] -= mr*r - mi*m
				xi[c] -= mr*m + mi*r
			}
		}
		dr, di := recip(lre[i*n+i], lim[i*n+i])
		for c := range xr {
			r, m := xr[c], xi[c]
			xr[c] = dr*r - di*m
			xi[c] = dr*m + di*r
		}
	}
	return nil
}

// SolveInto solves A·x = b for a single complex right-hand side into the
// caller-provided dst, whose length is the system's order. dst and b may
// not alias.
func (f *SoALU) SolveInto(dst, b []complex128) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("numeric: solve-into rhs len %d, dst len %d, want %d: %w", len(b), len(dst), f.n, ErrDimension)
	}
	n := f.n
	for i, p := range f.piv {
		dst[i] = b[p]
	}
	lre, lim := f.lu.re, f.lu.im
	for i := 1; i < n; i++ {
		var sr, si float64
		for j := 0; j < i; j++ {
			mr, mi := lre[i*n+j], lim[i*n+j]
			r, m := real(dst[j]), imag(dst[j])
			sr += mr*r - mi*m
			si += mr*m + mi*r
		}
		dst[i] = complex(real(dst[i])-sr, imag(dst[i])-si)
	}
	for i := n - 1; i >= 0; i-- {
		var sr, si float64
		for j := i + 1; j < n; j++ {
			mr, mi := lre[i*n+j], lim[i*n+j]
			r, m := real(dst[j]), imag(dst[j])
			sr += mr*r - mi*m
			si += mr*m + mi*r
		}
		vr, vi := real(dst[i])-sr, imag(dst[i])-si
		dr, di := recip(lre[i*n+i], lim[i*n+i])
		dst[i] = complex(dr*vr-di*vi, dr*vi+di*vr)
	}
	return nil
}
