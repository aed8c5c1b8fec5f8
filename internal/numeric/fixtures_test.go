package numeric

import (
	"fmt"
	"math"
	"math/cmplx"
)

// Constructors, accessors and checks that only tests use.

// MatrixFromRows builds a matrix from a slice of equal-length rows.
func MatrixFromRows(rows [][]complex128) (*Matrix, error) {
	r := len(rows)
	if r == 0 {
		return NewMatrix(0, 0), nil
	}
	c := len(rows[0])
	m := NewMatrix(r, c)
	for i, row := range rows {
		if len(row) != c {
			return nil, fmt.Errorf("numeric: ragged row %d: got %d columns, want %d: %w", i, len(row), c, ErrDimension)
		}
		copy(m.data[i*c:(i+1)*c], row)
	}
	return m, nil
}

// Identity returns the n-by-n identity matrix.
func Identity(n int) *Matrix {
	m := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		m.data[i*n+i] = 1
	}
	return m
}

// Residual returns the infinity norm of A*x - b, a direct check of a
// linear-solve result.
func Residual(a *Matrix, x, b []complex128) (float64, error) {
	ax, err := a.MulVec(x)
	if err != nil {
		return 0, err
	}
	if len(b) != len(ax) {
		return 0, fmt.Errorf("numeric: residual rhs len %d, want %d: %w", len(b), len(ax), ErrDimension)
	}
	var mx float64
	for i := range ax {
		if m := cmplx.Abs(ax[i] - b[i]); m > mx {
			mx = m
		}
	}
	return mx, nil
}

// CloseRel reports whether a and b agree to relative tolerance rel
// (with an absolute floor abs for values near zero).
func CloseRel(a, b, rel, abs float64) bool {
	d := math.Abs(a - b)
	if d <= abs {
		return true
	}
	scale := math.Max(math.Abs(a), math.Abs(b))
	return d <= rel*scale
}

// SoAFromMatrix allocates a new SoAMatrix holding the planes of src.
func SoAFromMatrix(src *Matrix) *SoAMatrix {
	out := NewSoAMatrix(src.rows, src.cols)
	for i, v := range src.data {
		out.re[i] = real(v)
		out.im[i] = imag(v)
	}
	return out
}

// FactorSoA factors a copy of a, leaving a untouched.
func FactorSoA(a *SoAMatrix) (*SoALU, error) {
	if a.rows != a.cols {
		return nil, fmt.Errorf("numeric: factor %dx%d: %w", a.rows, a.cols, ErrDimension)
	}
	work := NewSoAMatrix(a.rows, a.cols)
	copy(work.re, a.re)
	copy(work.im, a.im)
	f := &SoALU{}
	if err := FactorSoAReuse(f, work); err != nil {
		return nil, err
	}
	return f, nil
}

// Rows returns the number of rows (system variables).
func (b *Block) Rows() int { return b.rows }

// At returns the element at row i, column j.
func (b *Block) At(i, j int) complex128 {
	b.check(i, j)
	return complex(b.re[i*b.cols+j], b.im[i*b.cols+j])
}
