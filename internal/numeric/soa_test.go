package numeric

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

// randWellConditioned fills an n×n system that is diagonally dominant —
// well away from singular, so solve comparisons are not dominated by
// conditioning noise.
func randWellConditioned(rng *rand.Rand, n int) *Matrix {
	a := NewMatrix(n, n)
	for i := 0; i < n; i++ {
		var rowSum float64
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			v := complex(rng.NormFloat64(), rng.NormFloat64())
			a.Set(i, j, v)
			rowSum += cmplx.Abs(v)
		}
		// Diagonal dominance with a random phase keeps pivoting exercised.
		phase := 2 * math.Pi * rng.Float64()
		a.Set(i, i, complex((rowSum+1)*math.Cos(phase), (rowSum+1)*math.Sin(phase)))
	}
	return a
}

func randBlock(rng *rand.Rand, n, nrhs int) *Block {
	b := NewBlock(n, nrhs)
	for i := 0; i < n; i++ {
		for j := 0; j < nrhs; j++ {
			b.Set(i, j, complex(rng.NormFloat64(), rng.NormFloat64()))
		}
	}
	return b
}

// TestSolveBlockMatchesColumnSolves pins the multi-RHS SoALU.SolveBlock
// against column-by-column SolveInto on the complex128 LU of the same
// matrix, for random well-conditioned systems of random shapes.
func TestSolveBlockMatchesColumnSolves(t *testing.T) {
	prop := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := 1 + r.Intn(12)
		nrhs := 1 + r.Intn(8)
		a := randWellConditioned(r, n)
		rhs := randBlock(r, n, nrhs)

		// Scalar complex128 LU reference: column-by-column SolveInto.
		lu, err := Factor(a)
		if err != nil {
			t.Logf("factor: %v", err)
			return false
		}
		col := make([]complex128, n)
		x := make([]complex128, n)
		want := NewMatrix(n, nrhs)
		for j := 0; j < nrhs; j++ {
			for i := range col {
				col[i] = rhs.At(i, j)
			}
			if err := lu.SolveInto(x, col); err != nil {
				t.Logf("solve column %d: %v", j, err)
				return false
			}
			for i := 0; i < n; i++ {
				want.Set(i, j, x[i])
			}
		}

		// Blocked solve on the SoA factorization of the same matrix.
		slu, err := FactorSoA(SoAFromMatrix(a))
		if err != nil {
			t.Logf("soa factor: %v", err)
			return false
		}
		dst := NewBlock(n, nrhs)
		dst.CopyFrom(rhs)
		if err := slu.SolveBlock(dst); err != nil {
			t.Logf("soa solve-block: %v", err)
			return false
		}
		for i := 0; i < n; i++ {
			for j := 0; j < nrhs; j++ {
				g, w := dst.At(i, j), want.At(i, j)
				scale := math.Max(cmplx.Abs(w), 1)
				if cmplx.Abs(g-w)/scale > 1e-9 {
					t.Logf("n=%d nrhs=%d (%d,%d): got %v want %v", n, nrhs, i, j, g, w)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSoAFactorMatchesScalarFactor pins the SoA factorization against the
// complex128 one through their solves: same matrix, same RHS, answers
// within 1e-9.
func TestSoAFactorMatchesScalarFactor(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(10)
		a := randWellConditioned(rng, n)
		b := make([]complex128, n)
		for i := range b {
			b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
		}
		lu, err := Factor(a)
		if err != nil {
			t.Fatal(err)
		}
		want, err := lu.Solve(b)
		if err != nil {
			t.Fatal(err)
		}
		slu, err := FactorSoA(SoAFromMatrix(a))
		if err != nil {
			t.Fatal(err)
		}
		got := make([]complex128, n)
		if err := slu.SolveInto(got, b); err != nil {
			t.Fatal(err)
		}
		for i := range want {
			scale := math.Max(cmplx.Abs(want[i]), 1)
			if cmplx.Abs(got[i]-want[i])/scale > 1e-9 {
				t.Fatalf("trial %d n=%d x[%d]: soa %v scalar %v", trial, n, i, got[i], want[i])
			}
		}
	}
}

func TestFactorSoAReuseSingular(t *testing.T) {
	a := NewSoAMatrix(2, 2) // all zeros
	var f SoALU
	if err := FactorSoAReuse(&f, a); err == nil {
		t.Fatal("factoring the zero matrix succeeded")
	}
}

func TestBlockRoundTripAndReset(t *testing.T) {
	b := NewBlock(3, 2)
	// Reset to a smaller shape reuses the planes (no allocation) and the
	// block reports the new shape.
	b.Reset(2, 1)
	if b.Rows() != 2 || b.Cols() != 1 {
		t.Fatalf("after Reset: %d×%d, want 2×1", b.Rows(), b.Cols())
	}
}

// TestSolveScratchPathsAllocationFree pins the zero-allocation contract
// of the reuse APIs: with warm scratch, factoring and solving (single
// RHS and block) allocate nothing per call.
func TestSolveScratchPathsAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	n, nrhs := 8, 5
	a := randWellConditioned(rng, n)
	rhs := randBlock(rng, n, nrhs)
	b := make([]complex128, n)
	for i := range b {
		b[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}

	lu, err := Factor(a)
	if err != nil {
		t.Fatal(err)
	}
	x := make([]complex128, n)
	blk := NewBlock(n, nrhs)

	// Warm SoA storage.
	sa := SoAFromMatrix(a)
	sf := NewSoAMatrix(n, n)
	copy(sf.re, sa.re)
	copy(sf.im, sa.im)
	var slu SoALU
	if err := FactorSoAReuse(&slu, sf); err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name string
		run  func()
	}{
		{"LU.SolveInto", func() {
			if err := lu.SolveInto(x, b); err != nil {
				t.Fatal(err)
			}
		}},
		{"FactorSoAReuse", func() {
			copy(sf.re, sa.re)
			copy(sf.im, sa.im)
			if err := FactorSoAReuse(&slu, sf); err != nil {
				t.Fatal(err)
			}
		}},
		{"SoALU.SolveInto", func() {
			if err := slu.SolveInto(x, b); err != nil {
				t.Fatal(err)
			}
		}},
		{"SoALU.SolveBlock", func() {
			blk.CopyFrom(rhs)
			if err := slu.SolveBlock(blk); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		tc.run() // one warm-up pass so lazily sized scratch settles
		if avg := testing.AllocsPerRun(20, tc.run); avg > 0 {
			t.Errorf("%s: %v allocs per call, want 0", tc.name, avg)
		}
	}
}

func ExampleSoALU_SolveBlock() {
	a := NewMatrix(2, 2)
	a.Set(0, 0, 2)
	a.Set(1, 1, 4)
	lu, _ := FactorSoA(SoAFromMatrix(a))
	blk := NewBlock(2, 2)
	blk.Set(0, 0, 2)
	blk.Set(1, 0, 4)
	blk.Set(0, 1, 6)
	blk.Set(1, 1, 8)
	_ = lu.SolveBlock(blk)
	fmt.Println(real(blk.At(0, 0)), real(blk.At(1, 0)), real(blk.At(0, 1)), real(blk.At(1, 1)))
	// Output: 1 1 3 2
}
