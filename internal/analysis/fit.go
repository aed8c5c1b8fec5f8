package analysis

import (
	"fmt"
	"math"

	"repro/internal/numeric"
)

// FitRational recovers a real-coefficient rational transfer function
// N(s)/D(s) (deg N = numDeg, deg D = denDeg, D monic) from frequency
// samples of the network, by linear least squares on the relation
// N(jω) − H(jω)·D(jω) = 0. For lumped linear circuits the fit is exact
// up to conditioning, which turns the sampled AC analysis into symbolic
// poles, zeros, ω0 and Q — the quantities filter designers reason with.
//
// omegas must contain at least (numDeg + denDeg + 1) distinct positive
// frequencies; more samples improve conditioning.
func (ac *AC) FitRational(source, outNode string, numDeg, denDeg int, omegas []float64) (numeric.Rational, error) {
	if numDeg < 0 || denDeg < 1 {
		return numeric.Rational{}, fmt.Errorf("analysis: bad fit degrees num=%d den=%d", numDeg, denDeg)
	}
	unknowns := (numDeg + 1) + denDeg // n_0..n_nd, d_0..d_{dd-1}; d_dd = 1
	if len(omegas) < unknowns {
		return numeric.Rational{}, fmt.Errorf("analysis: %d samples for %d unknowns", len(omegas), unknowns)
	}
	// Column scaling: normalize frequencies to their geometric mean so
	// powers of s stay well conditioned, then unscale coefficients.
	scale := geometricMean(omegas)
	if scale <= 0 || math.IsNaN(scale) {
		return numeric.Rational{}, fmt.Errorf("analysis: degenerate frequency set")
	}

	rows := len(omegas)
	a := numeric.NewMatrix(rows, unknowns)
	b := make([]complex128, rows)
	for k, w := range omegas {
		h, err := ac.Transfer(source, outNode, w)
		if err != nil {
			return numeric.Rational{}, err
		}
		s := complex(0, w/scale)
		// N(s) terms.
		pow := complex(1, 0)
		for i := 0; i <= numDeg; i++ {
			a.Set(k, i, pow)
			pow *= s
		}
		// -H·D(s) terms for d_0..d_{dd-1}.
		pow = complex(1, 0)
		for j := 0; j < denDeg; j++ {
			a.Set(k, numDeg+1+j, -h*pow)
			pow *= s
		}
		// RHS: +H·s^dd (from the monic d_dd = 1).
		b[k] = h * pow
	}

	// Least squares by normal equations: (AᴴA)x = Aᴴb.
	ah := a.ConjTranspose()
	ata, err := ah.Mul(a)
	if err != nil {
		return numeric.Rational{}, err
	}
	atb, err := ah.MulVec(b)
	if err != nil {
		return numeric.Rational{}, err
	}
	f, err := numeric.Factor(ata)
	if err != nil {
		return numeric.Rational{}, fmt.Errorf("analysis: rational fit is rank-deficient (degrees too high?): %w", err)
	}
	x, err := f.Solve(atb)
	if err != nil {
		return numeric.Rational{}, err
	}

	// Extract real coefficients and undo the frequency scaling:
	// coefficient of s^i was computed against (s/scale)^i.
	num := make(numeric.Poly, numDeg+1)
	for i := 0; i <= numDeg; i++ {
		num[i] = real(x[i]) / math.Pow(scale, float64(i))
	}
	den := make(numeric.Poly, denDeg+1)
	for j := 0; j < denDeg; j++ {
		den[j] = real(x[numDeg+1+j]) / math.Pow(scale, float64(j))
	}
	den[denDeg] = 1 / math.Pow(scale, float64(denDeg))

	// Normalize so the denominator's constant term is positive (cosmetic
	// but makes results stable for tests and display).
	if den[0] < 0 {
		num = num.ScalePoly(-1)
		den = den.ScalePoly(-1)
	}
	return numeric.Rational{Num: num.Trim(), Den: den.Trim()}, nil
}

func geometricMean(x []float64) float64 {
	var acc float64
	for _, v := range x {
		if v <= 0 {
			return 0
		}
		acc += math.Log(v)
	}
	return math.Exp(acc / float64(len(x)))
}
