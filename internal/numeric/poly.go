package numeric

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
)

// Poly is a polynomial with real coefficients in ascending power order:
// Poly{a0, a1, a2} represents a0 + a1·s + a2·s².
//
// Transfer functions of lumped linear circuits are ratios of such
// polynomials; the analysis package uses them to cross-check MNA results
// against closed forms.
type Poly []float64

// Degree returns the degree after trimming trailing (near-)zero
// coefficients. The zero polynomial has degree -1 by convention.
func (p Poly) Degree() int {
	for i := len(p) - 1; i >= 0; i-- {
		if p[i] != 0 {
			return i
		}
	}
	return -1
}

// Trim returns p without trailing zero coefficients.
func (p Poly) Trim() Poly {
	d := p.Degree()
	if d < 0 {
		return Poly{}
	}
	out := make(Poly, d+1)
	copy(out, p[:d+1])
	return out
}

// Eval evaluates p at the complex point s by Horner's rule.
func (p Poly) Eval(s complex128) complex128 {
	var acc complex128
	for i := len(p) - 1; i >= 0; i-- {
		acc = acc*s + complex(p[i], 0)
	}
	return acc
}

// ScalePoly returns k·p.
func (p Poly) ScalePoly(k float64) Poly {
	out := make(Poly, len(p))
	for i, v := range p {
		out[i] = k * v
	}
	return out.Trim()
}

// Roots finds all complex roots of p with the Durand–Kerner (Weierstrass)
// simultaneous iteration. It converges for the well-conditioned low-order
// polynomials that arise from filter transfer functions. maxIter bounds
// the iteration count; 200 is plenty in practice.
func (p Poly) Roots() ([]complex128, error) {
	q := p.Trim()
	d := q.Degree()
	if d < 1 {
		return nil, nil
	}
	// Normalize to monic.
	monic := make([]complex128, d+1)
	lead := q[d]
	for i := 0; i <= d; i++ {
		monic[i] = complex(q[i]/lead, 0)
	}
	evalMonic := func(s complex128) complex128 {
		var acc complex128
		for i := d; i >= 0; i-- {
			acc = acc*s + monic[i]
		}
		return acc
	}
	// Initial guesses on a spiral that is not a root of unity pattern.
	roots := make([]complex128, d)
	seed := complex(0.4, 0.9) // the customary Durand–Kerner seed
	roots[0] = seed
	for i := 1; i < d; i++ {
		roots[i] = roots[i-1] * seed
	}
	const maxIter = 500
	const tol = 1e-13
	for iter := 0; iter < maxIter; iter++ {
		var worst float64
		for i := 0; i < d; i++ {
			num := evalMonic(roots[i])
			den := complex(1, 0)
			for j := 0; j < d; j++ {
				if j != i {
					den *= roots[i] - roots[j]
				}
			}
			if den == 0 {
				// Perturb coincident iterates and continue.
				roots[i] += complex(1e-8, 1e-8)
				worst = math.Inf(1)
				continue
			}
			delta := num / den
			roots[i] -= delta
			if m := cmplx.Abs(delta); m > worst {
				worst = m
			}
		}
		if worst < tol {
			return roots, nil
		}
	}
	// Check residuals before giving up: slow convergence may still have
	// produced acceptable roots.
	for _, r := range roots {
		if cmplx.Abs(evalMonic(r)) > 1e-6 {
			return roots, fmt.Errorf("numeric: root finding did not converge for degree-%d polynomial", d)
		}
	}
	return roots, nil
}

// String renders the polynomial as e.g. "1 + 0.5s + 2s^2".
func (p Poly) String() string {
	t := p.Trim()
	if len(t) == 0 {
		return "0"
	}
	var parts []string
	for i, v := range t {
		if v == 0 && len(t) > 1 {
			continue
		}
		switch i {
		case 0:
			parts = append(parts, fmt.Sprintf("%g", v))
		case 1:
			parts = append(parts, fmt.Sprintf("%gs", v))
		default:
			parts = append(parts, fmt.Sprintf("%gs^%d", v, i))
		}
	}
	return strings.Join(parts, " + ")
}

// Rational is a real-coefficient rational function N(s)/D(s), the closed
// form of a lumped linear network's transfer function.
type Rational struct {
	Num Poly
	Den Poly
}

// Eval evaluates the rational function at s.
func (r Rational) Eval(s complex128) complex128 {
	return r.Num.Eval(s) / r.Den.Eval(s)
}

// MagDb returns |r(jω)| in decibels.
func (r Rational) MagDb(omega float64) float64 {
	return Db(cmplx.Abs(r.Eval(complex(0, omega))))
}

// Mag returns |r(jω)|.
func (r Rational) Mag(omega float64) float64 {
	return cmplx.Abs(r.Eval(complex(0, omega)))
}

// Phase returns the phase of r(jω) in radians.
func (r Rational) Phase(omega float64) float64 {
	return cmplx.Phase(r.Eval(complex(0, omega)))
}

// Poles returns the roots of the denominator.
func (r Rational) Poles() ([]complex128, error) { return r.Den.Roots() }

// Zeros returns the roots of the numerator.
func (r Rational) Zeros() ([]complex128, error) { return r.Num.Roots() }
