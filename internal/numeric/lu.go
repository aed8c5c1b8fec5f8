package numeric

import (
	"fmt"
	"math/cmplx"
)

// LU is an LU factorization with partial (row) pivoting: P*A = L*U.
//
// L is unit lower triangular and U upper triangular, packed into a single
// matrix. The factorization is the workhorse behind every AC analysis in
// this repository: each frequency point of a Modified Nodal Analysis run
// factors one complex system and back-substitutes.
type LU struct {
	lu  *Matrix
	piv []int // row i of the factored matrix came from row piv[i] of A
	n   int
}

// Factor computes the LU factorization of the square matrix a, which it
// leaves untouched. It returns ErrSingular if a pivot is exactly zero.
func Factor(a *Matrix) (*LU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("numeric: factor %dx%d: %w", a.rows, a.cols, ErrDimension)
	}
	n := a.rows
	f := &LU{lu: a.Clone(), piv: make([]int, n), n: n}
	for i := range f.piv {
		f.piv[i] = i
	}
	d := f.lu.data
	for k := 0; k < n; k++ {
		// Partial pivoting: pick the largest modulus in column k at or
		// below the diagonal.
		p := k
		mx := cmplx.Abs(d[k*n+k])
		for i := k + 1; i < n; i++ {
			if a := cmplx.Abs(d[i*n+k]); a > mx {
				mx, p = a, i
			}
		}
		if mx == 0 {
			return nil, fmt.Errorf("numeric: zero pivot at column %d: %w", k, ErrSingular)
		}
		if p != k {
			for j := 0; j < n; j++ {
				d[k*n+j], d[p*n+j] = d[p*n+j], d[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := d[k*n+k]
		for i := k + 1; i < n; i++ {
			m := d[i*n+k] / pivot
			d[i*n+k] = m
			if m == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				d[i*n+j] -= m * d[k*n+j]
			}
		}
	}
	return f, nil
}

// Solve solves A*x = b for a single right-hand side. b is not modified.
func (f *LU) Solve(b []complex128) ([]complex128, error) {
	if len(b) != f.n {
		return nil, fmt.Errorf("numeric: solve with len-%d rhs, want %d: %w", len(b), f.n, ErrDimension)
	}
	x := make([]complex128, f.n)
	// Apply the permutation.
	for i, p := range f.piv {
		x[i] = b[p]
	}
	f.solveInPlace(x)
	return x, nil
}

// SolveInto is Solve reusing a caller-provided destination, whose length
// is the system's order.
// dst and b may not alias.
func (f *LU) SolveInto(dst, b []complex128) error {
	if len(b) != f.n || len(dst) != f.n {
		return fmt.Errorf("numeric: solve-into rhs len %d, dst len %d, want %d: %w", len(b), len(dst), f.n, ErrDimension)
	}
	for i, p := range f.piv {
		dst[i] = b[p]
	}
	f.solveInPlace(dst)
	return nil
}

// solveInPlace performs forward and back substitution on a permuted rhs.
func (f *LU) solveInPlace(x []complex128) {
	n, d := f.n, f.lu.data
	// Ly = Pb (L unit lower triangular).
	for i := 1; i < n; i++ {
		var s complex128
		for j := 0; j < i; j++ {
			s += d[i*n+j] * x[j]
		}
		x[i] -= s
	}
	// Ux = y.
	for i := n - 1; i >= 0; i-- {
		var s complex128
		for j := i + 1; j < n; j++ {
			s += d[i*n+j] * x[j]
		}
		x[i] = (x[i] - s) / d[i*n+i]
	}
}
