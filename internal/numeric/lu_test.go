package numeric

import (
	"errors"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFactorNonSquare(t *testing.T) {
	if _, err := Factor(NewMatrix(2, 3)); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestFactorSingular(t *testing.T) {
	a, _ := MatrixFromRows([][]complex128{
		{1, 2},
		{2, 4},
	})
	if _, err := Factor(a); !errors.Is(err, ErrSingular) {
		t.Fatalf("err = %v, want ErrSingular", err)
	}
}

func TestSolveKnownSystem(t *testing.T) {
	// 2x + y = 5; x + 3y = 10 → x = 1, y = 3.
	a, _ := MatrixFromRows([][]complex128{{2, 1}, {1, 3}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]complex128{5, 10})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-1) > 1e-12 || cmplx.Abs(x[1]-3) > 1e-12 {
		t.Fatalf("x = %v, want [1 3]", x)
	}
}

func TestSolveComplexSystem(t *testing.T) {
	// (1+i)x = 2i → x = 2i/(1+i) = 1+i.
	a, _ := MatrixFromRows([][]complex128{{1 + 1i}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x, err := f.Solve([]complex128{2i})
	if err != nil {
		t.Fatal(err)
	}
	if cmplx.Abs(x[0]-(1+1i)) > 1e-12 {
		t.Fatalf("x = %v, want 1+i", x[0])
	}
}

func TestSolveRhsLenMismatch(t *testing.T) {
	f, err := Factor(Identity(3))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Solve([]complex128{1, 2}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

func TestSolveInto(t *testing.T) {
	a, _ := MatrixFromRows([][]complex128{{4, 0}, {0, 2}})
	f, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	dst := make([]complex128, 2)
	if err := f.SolveInto(dst, []complex128{8, 6}); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 2 || dst[1] != 3 {
		t.Fatalf("dst = %v, want [2 3]", dst)
	}
	if err := f.SolveInto(dst[:1], []complex128{8, 6}); !errors.Is(err, ErrDimension) {
		t.Fatalf("err = %v, want ErrDimension", err)
	}
}

// Property: for random well-conditioned systems, the solve residual is tiny.
func TestQuickSolveResidual(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(10)
		a := randomMatrix(r, n, n)
		// Diagonal boost keeps the test focused on solver accuracy, not
		// random near-singularity.
		for i := 0; i < n; i++ {
			a.Add(i, i, complex(float64(n), float64(n)))
		}
		b := randomVector(r, n)
		lu, err := Factor(a)
		if err != nil {
			return false
		}
		x, err := lu.Solve(b)
		if err != nil {
			return false
		}
		res, err := Residual(a, x, b)
		if err != nil {
			return false
		}
		var bmax float64
		for _, v := range b {
			bmax = max(bmax, cmplx.Abs(v))
		}
		return res < 1e-9*(1+bmax)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
