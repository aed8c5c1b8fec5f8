package engine

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// solveSmall2 is the oracle solve2 is held to: solveSmall at k = 2 on
// the same system.
func solveSmall2(m00, m01, m10, m11, r0, r1 complex128) (w0, w1 complex128, ok bool) {
	r := []complex128{r0, r1}
	ok = solveSmall(2, []complex128{m00, m01, m10, m11}, r)
	return r[0], r[1], ok
}

// sameSolution reports whether a solve2 component equals the oracle's.
// On amd64, where Go fuses no multiply-add, the two run the same
// operations and must agree bit for bit. Elsewhere either may be fused
// differently, so they agree within 1e-12 relative (NaN with NaN).
func sameSolution(got, want complex128) bool {
	if runtime.GOARCH == "amd64" {
		return math.Float64bits(real(got)) == math.Float64bits(real(want)) &&
			math.Float64bits(imag(got)) == math.Float64bits(imag(want))
	}
	near := func(g, w float64) bool {
		if g == w || math.IsNaN(g) && math.IsNaN(w) {
			return true
		}
		return math.Abs(g-w) <= 1e-12*math.Max(math.Abs(g), math.Abs(w))
	}
	return near(real(got), real(want)) && near(imag(got), imag(want))
}

// checkSolve2 fails t unless solve2 and solveSmall at k = 2 give the
// same verdict on the system and, when both accept it, the same
// solution. It returns the verdict.
func checkSolve2(t testing.TB, m00, m01, m10, m11, r0, r1 complex128) bool {
	t.Helper()
	w0, w1, ok := solve2(m00, m01, m10, m11, r0, r1)
	v0, v1, okRef := solveSmall2(m00, m01, m10, m11, r0, r1)
	if ok != okRef {
		t.Fatalf("solve2(%v, %v, %v, %v | %v, %v): ok = %v, solveSmall says %v",
			m00, m01, m10, m11, r0, r1, ok, okRef)
	}
	if ok && (!sameSolution(w0, v0) || !sameSolution(w1, v1)) {
		t.Fatalf("solve2(%v, %v, %v, %v | %v, %v) = (%v, %v), solveSmall gives (%v, %v)",
			m00, m01, m10, m11, r0, r1, w0, w1, v0, v1)
	}
	return ok
}

// guardEdge returns the smallest x ≥ 0 with x·x ≥ g: a pivot of
// modulus x passes a squared guard g, one of Nextafter(x, 0) does not.
func guardEdge(g float64) float64 {
	x := math.Sqrt(g)
	for x*x < g {
		x = math.Nextafter(x, 1)
	}
	for y := math.Nextafter(x, 0); y*y >= g; y = math.Nextafter(y, 0) {
		x = y
	}
	return x
}

// TestSolve2MatchesSolveSmall pins the unrolled rank-2 capacitance
// solve to the general elimination at k = 2: a million seeded random
// systems — entries over many decades, exact zeros, near-singular and
// capacitance-shaped matrices — and the engineered edges: a row swap,
// equal pivot moduli (no swap), a zero multiplier, each pivot just above
// and just below the guard, the zero matrix, and NaN and ±Inf entries.
func TestSolve2MatchesSolveSmall(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	entry := func() complex128 {
		return complex(rng.NormFloat64(), rng.NormFloat64())
	}
	var accepted, refused int
	for trial := 0; trial < 1_000_000; trial++ {
		m := [4]complex128{entry(), entry(), entry(), entry()}
		r := [2]complex128{entry(), entry()}
		switch trial % 5 {
		case 1: // every entry on its own scale
			for i := range m {
				m[i] *= complex(math.Pow(10, float64(rng.Intn(25)-12)), 0)
			}
		case 2: // near-singular: the second pivot is ε·m11
			eps := math.Pow(10, -12*rng.Float64())
			m[3] = m[1] * m[2] / m[0] * complex(1+eps, 0)
		case 3: // exact zeros
			for i := range m {
				if rng.Intn(3) == 0 {
					m[i] = 0
				}
			}
		case 4: // capacitance-shaped: I + diag(δ)·C
			d0 := entry() * complex(math.Pow(10, -3*rng.Float64()), 0)
			d1 := entry() * complex(math.Pow(10, -3*rng.Float64()), 0)
			m = [4]complex128{d0*m[0] + 1, d0 * m[1], d1 * m[2], d1*m[3] + 1}
		}
		if checkSolve2(t, m[0], m[1], m[2], m[3], r[0], r[1]) {
			accepted++
		} else {
			refused++
		}
	}
	if accepted == 0 || refused == 0 {
		t.Fatalf("random systems: %d accepted, %d refused; both verdicts must occur", accepted, refused)
	}

	r0, r1 := complex(0.3, -1.1), complex(-2.5, 0.7)
	// A row swap, and equal pivot moduli (|1+2i|² = |2+i|² = 5), where
	// the strict > keeps the first row.
	checkSolve2(t, 1, 2, 3+1i, 4, r0, r1)
	checkSolve2(t, 1+2i, 3, 2+1i, 1-1i, r0, r1)
	// A zero multiplier: nothing to eliminate.
	checkSolve2(t, 2+1i, 3-1i, 0, 5, r0, r1)
	// The first pivot just above and just below the guard (norm² = 1).
	g := denGuard * denGuard * 1.0
	x := guardEdge(g)
	below := math.Nextafter(x, 0)
	if !checkSolve2(t, complex(x, 0), 1, 0, 1, r0, r1) {
		t.Fatalf("first pivot %g at the guard refused", x)
	}
	if checkSolve2(t, complex(below, 0), 1, 0, 1, r0, r1) {
		t.Fatalf("first pivot %g under the guard accepted", below)
	}
	// The second pivot just above and just below it, without and with
	// an elimination step in front (m11 − 1·1 is exact near 1.001).
	if !checkSolve2(t, 1, 0, 0, complex(0, x), r0, r1) {
		t.Fatalf("second pivot %gi at the guard refused", x)
	}
	if checkSolve2(t, 1, 0, 0, complex(0, below), r0, r1) {
		t.Fatalf("second pivot %gi under the guard accepted", below)
	}
	var sawOK, sawRefused bool
	for m11 := 1.0009; m11 < 1.0011; m11 += 1e-7 {
		for _, y := range []float64{math.Nextafter(m11, 0), m11, math.Nextafter(m11, 2)} {
			if checkSolve2(t, 1, 1, 1, complex(y, 0), r0, r1) {
				sawOK = true
			} else {
				sawRefused = true
			}
		}
	}
	if !sawOK || !sawRefused {
		t.Fatal("the second-pivot sweep did not cross the guard")
	}
	// The zero matrix is refused.
	if checkSolve2(t, 0, 0, 0, 0, r0, r1) {
		t.Fatal("the zero matrix was accepted")
	}
	// A NaN entry the norm skips: with m10 = 0 nothing is eliminated, and
	// the second pivot fails the guard that the other entries set.
	if checkSolve2(t, 1, complex(math.NaN(), 0), 0, 1e-4, r0, r1) {
		t.Fatal("a second pivot under the guard was accepted beside a NaN entry")
	}
	// NaN and ±Inf in every entry of m and r, one at a time.
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		for i := 0; i < 12; i++ {
			v := [12]float64{4, 0.5, 1, -1, 2, 0.25, 3, 1, 1, -2, 0.5, 3}
			v[i] = bad
			checkSolve2(t, complex(v[0], v[1]), complex(v[2], v[3]), complex(v[4], v[5]),
				complex(v[6], v[7]), complex(v[8], v[9]), complex(v[10], v[11]))
		}
	}
}

// FuzzSolve2: for any twelve float64 bit patterns (the real and
// imaginary parts of m00, m01, m10, m11, r0, r1), solve2 gives
// solveSmall's verdict and, when it accepts, solveSmall's solution.
func FuzzSolve2(f *testing.F) {
	add := func(v ...float64) {
		var b [12]uint64
		for i, x := range v {
			b[i] = math.Float64bits(x)
		}
		f.Add(b[0], b[1], b[2], b[3], b[4], b[5], b[6], b[7], b[8], b[9], b[10], b[11])
	}
	add(4, 0, 1, 0, 1, 0, 4, 0, 1, 0, 2, 0)           // diagonally dominant
	add(1, 0, 2, 0, 3, 1, 4, 0, 0.3, -1.1, -2.5, 0.7) // row swap
	add(1, 2, 3, 0, 2, 1, 1, -1, 1, 0, 0, 1)          // equal pivot moduli
	add(1, 0, 1, 0, 1, 0, 1.001, 0, 1, 0, 1, 0)       // second pivot at the guard
	add(0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 1, 0)           // zero matrix
	add(math.NaN(), 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)
	add(math.Inf(1), 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0)
	add(1e-300, 1e-300, 1e300, 0, 1, 1, 1e-300, 0, 1, 0, 1, 0)
	f.Fuzz(func(t *testing.T, m00r, m00i, m01r, m01i, m10r, m10i, m11r, m11i, r0r, r0i, r1r, r1i uint64) {
		c := func(re, im uint64) complex128 {
			return complex(math.Float64frombits(re), math.Float64frombits(im))
		}
		checkSolve2(t, c(m00r, m00i), c(m01r, m01i), c(m10r, m10i), c(m11r, m11i), c(r0r, r0i), c(r1r, r1i))
	})
}
