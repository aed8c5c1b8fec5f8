// Package numeric provides the dense complex linear algebra, polynomial,
// and vector utilities that the rest of the repository builds on.
//
// The analog fault-diagnosis pipeline only ever needs moderately sized
// systems (a Modified Nodal Analysis matrix for a filter has tens of
// unknowns), so the package favours a simple, allocation-conscious dense
// representation over sparse machinery. All routines are deterministic and
// free of global state.
package numeric

import (
	"errors"
	"fmt"
	"math/cmplx"
	"strings"
)

// ErrDimension is returned when operand shapes are incompatible.
var ErrDimension = errors.New("numeric: dimension mismatch")

// ErrSingular is returned when a factorization meets an (effectively)
// singular matrix.
var ErrSingular = errors.New("numeric: matrix is singular to working precision")

// Matrix is a dense, row-major complex matrix.
//
// The zero value is an empty (0x0) matrix; use NewMatrix to allocate a
// sized one. Methods never alias their receiver with their result unless
// documented otherwise.
type Matrix struct {
	rows, cols int
	data       []complex128 // len == rows*cols, row-major
}

// NewMatrix allocates an r-by-c zero matrix.
func NewMatrix(r, c int) *Matrix {
	if r < 0 || c < 0 {
		panic(fmt.Sprintf("numeric: negative matrix dimension %dx%d", r, c))
	}
	return &Matrix{rows: r, cols: c, data: make([]complex128, r*c)}
}

// Rows returns the number of rows.
func (m *Matrix) Rows() int { return m.rows }

// Cols returns the number of columns.
func (m *Matrix) Cols() int { return m.cols }

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) complex128 {
	m.check(i, j)
	return m.data[i*m.cols+j]
}

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] = v
}

// Add accumulates v into the element at row i, column j. MNA stamping is
// built on this primitive.
func (m *Matrix) Add(i, j int, v complex128) {
	m.check(i, j)
	m.data[i*m.cols+j] += v
}

func (m *Matrix) check(i, j int) {
	if i < 0 || i >= m.rows || j < 0 || j >= m.cols {
		panic(fmt.Sprintf("numeric: index (%d,%d) out of range %dx%d", i, j, m.rows, m.cols))
	}
}

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	out := NewMatrix(m.rows, m.cols)
	copy(out.data, m.data)
	return out
}

// Equalish reports whether m and n have the same shape and all elements
// within tol of each other (element-wise modulus of the difference).
func (m *Matrix) Equalish(n *Matrix, tol float64) bool {
	if m.rows != n.rows || m.cols != n.cols {
		return false
	}
	for i := range m.data {
		if cmplx.Abs(m.data[i]-n.data[i]) > tol {
			return false
		}
	}
	return true
}

// Mul returns the matrix product m*n.
func (m *Matrix) Mul(n *Matrix) (*Matrix, error) {
	if m.cols != n.rows {
		return nil, fmt.Errorf("numeric: mul %dx%d by %dx%d: %w", m.rows, m.cols, n.rows, n.cols, ErrDimension)
	}
	out := NewMatrix(m.rows, n.cols)
	for i := 0; i < m.rows; i++ {
		for k := 0; k < m.cols; k++ {
			a := m.data[i*m.cols+k]
			if a == 0 {
				continue
			}
			for j := 0; j < n.cols; j++ {
				out.data[i*n.cols+j] += a * n.data[k*n.cols+j]
			}
		}
	}
	return out, nil
}

// MulVec returns the matrix-vector product m*x.
func (m *Matrix) MulVec(x []complex128) ([]complex128, error) {
	if m.cols != len(x) {
		return nil, fmt.Errorf("numeric: mulvec %dx%d by len-%d vector: %w", m.rows, m.cols, len(x), ErrDimension)
	}
	out := make([]complex128, m.rows)
	for i := 0; i < m.rows; i++ {
		var s complex128
		row := m.data[i*m.cols : (i+1)*m.cols]
		for j, v := range row {
			s += v * x[j]
		}
		out[i] = s
	}
	return out, nil
}

// ConjTranspose returns the Hermitian transpose of m.
func (m *Matrix) ConjTranspose() *Matrix {
	out := NewMatrix(m.cols, m.rows)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			out.data[j*m.rows+i] = cmplx.Conj(m.data[i*m.cols+j])
		}
	}
	return out
}

// MaxAbs returns the largest element modulus (the max norm).
func (m *Matrix) MaxAbs() float64 {
	var mx float64
	for _, v := range m.data {
		if a := cmplx.Abs(v); a > mx {
			mx = a
		}
	}
	return mx
}

// String renders the matrix for debugging.
func (m *Matrix) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Matrix %dx%d\n", m.rows, m.cols)
	for i := 0; i < m.rows; i++ {
		for j := 0; j < m.cols; j++ {
			v := m.data[i*m.cols+j]
			fmt.Fprintf(&b, " (%10.4g%+10.4gi)", real(v), imag(v))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
