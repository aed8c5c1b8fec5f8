package numeric

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestNewMatrixZeroed(t *testing.T) {
	m := NewMatrix(3, 4)
	if m.Rows() != 3 || m.Cols() != 4 {
		t.Fatalf("shape = %dx%d, want 3x4", m.Rows(), m.Cols())
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 4; j++ {
			if m.At(i, j) != 0 {
				t.Fatalf("At(%d,%d) = %v, want 0", i, j, m.At(i, j))
			}
		}
	}
}

func TestMatrixSetAtAdd(t *testing.T) {
	m := NewMatrix(2, 2)
	m.Set(0, 1, 3+4i)
	if got := m.At(0, 1); got != 3+4i {
		t.Fatalf("At = %v, want 3+4i", got)
	}
	m.Add(0, 1, 1-1i)
	if got := m.At(0, 1); got != 4+3i {
		t.Fatalf("after Add, At = %v, want 4+3i", got)
	}
}

func TestMatrixIndexPanics(t *testing.T) {
	m := NewMatrix(2, 2)
	for _, idx := range [][2]int{{-1, 0}, {0, -1}, {2, 0}, {0, 2}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("At(%d,%d) did not panic", idx[0], idx[1])
				}
			}()
			m.At(idx[0], idx[1])
		}()
	}
}

func TestMatrixFromRows(t *testing.T) {
	m, err := MatrixFromRows([][]complex128{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(1, 0) != 3 {
		t.Fatalf("At(1,0) = %v, want 3", m.At(1, 0))
	}
	if _, err := MatrixFromRows([][]complex128{{1, 2}, {3}}); !errors.Is(err, ErrDimension) {
		t.Fatalf("ragged rows error = %v, want ErrDimension", err)
	}
}

func TestIdentityMul(t *testing.T) {
	a := randomMatrix(rand.New(rand.NewSource(1)), 5, 5)
	id := Identity(5)
	prod, err := a.Mul(id)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equalish(a, 1e-14) {
		t.Fatal("A*I != A")
	}
	prod, err = id.Mul(a)
	if err != nil {
		t.Fatal(err)
	}
	if !prod.Equalish(a, 1e-14) {
		t.Fatal("I*A != A")
	}
}

func TestMulDimensionError(t *testing.T) {
	a := NewMatrix(2, 3)
	b := NewMatrix(2, 3)
	if _, err := a.Mul(b); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(rng, 4, 6)
	if !a.ConjTranspose().ConjTranspose().Equalish(a, 0) {
		t.Fatal("conjugate transpose is not an involution")
	}
	h := a.ConjTranspose()
	if h.Rows() != 6 || h.Cols() != 4 {
		t.Fatalf("conj transpose shape %dx%d, want 6x4", h.Rows(), h.Cols())
	}
	if h.At(2, 1) != cmplx.Conj(a.At(1, 2)) {
		t.Fatal("conj transpose element mismatch")
	}
}

func TestNorms(t *testing.T) {
	m, _ := MatrixFromRows([][]complex128{{3 + 4i, 0}, {0, 1}})
	if got := m.MaxAbs(); got != 5 {
		t.Fatalf("MaxAbs = %v, want 5", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := NewMatrix(2, 2)
	b := a.Clone()
	b.Set(0, 0, 1)
	if a.At(0, 0) != 0 {
		t.Fatal("Clone shares storage with original")
	}
}

// Property: matrix multiplication is associative for random shapes.
func TestQuickMulAssociative(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n1, n2, n3, n4 := 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5), 1+r.Intn(5)
		a := randomMatrix(r, n1, n2)
		b := randomMatrix(r, n2, n3)
		c := randomMatrix(r, n3, n4)
		ab, _ := a.Mul(b)
		abc1, _ := ab.Mul(c)
		bc, _ := b.Mul(c)
		abc2, _ := a.Mul(bc)
		return abc1.Equalish(abc2, 1e-9)
	}
	cfg := &quick.Config{MaxCount: 50, Rand: rng}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

// Property: (A+B)x = Ax + Bx.
func TestQuickAddDistributes(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(6)
		a := randomMatrix(r, n, n)
		b := randomMatrix(r, n, n)
		x := randomVector(r, n)
		ab := a.Clone()
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				ab.Add(i, j, b.At(i, j))
			}
		}
		lhs, _ := ab.MulVec(x)
		ax, _ := a.MulVec(x)
		bx, _ := b.MulVec(x)
		for i := range lhs {
			if cmplx.Abs(lhs[i]-(ax[i]+bx[i])) > 1e-10 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func randomMatrix(r *rand.Rand, rows, cols int) *Matrix {
	m := NewMatrix(rows, cols)
	for i := 0; i < rows; i++ {
		for j := 0; j < cols; j++ {
			m.Set(i, j, complex(r.NormFloat64(), r.NormFloat64()))
		}
	}
	return m
}

func randomVector(r *rand.Rand, n int) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(r.NormFloat64(), r.NormFloat64())
	}
	return v
}
