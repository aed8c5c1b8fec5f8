// Package analysis performs small-signal AC analysis of circuits via
// Modified Nodal Analysis: for each angular frequency ω it stamps the
// complex system G(jω)·x = b and solves for the node-voltage phasors.
// This is the fault-simulation engine behind the fault dictionary.
package analysis

import (
	"errors"
	"fmt"
	"math"
	"math/cmplx"

	"repro/internal/circuit"
	"repro/internal/numeric"
)

// ErrNoSolution wraps solver failures (singular MNA systems, typically a
// floating subcircuit or an unstable ideal-opamp configuration).
var ErrNoSolution = errors.New("analysis: MNA system has no solution")

// AC is a reusable AC analyzer for one circuit. Assembling fixes the
// variable ordering once; each Solve stamps and factors at one frequency.
type AC struct {
	sys  *circuit.System
	circ *circuit.Circuit
}

// NewAC assembles the circuit and returns an analyzer.
func NewAC(c *circuit.Circuit) (*AC, error) {
	sys, err := c.Assemble()
	if err != nil {
		return nil, err
	}
	return &AC{sys: sys, circ: c}, nil
}

// Size returns the MNA system order.
func (ac *AC) Size() int { return ac.sys.Size() }

// Solution holds the phasor solution at one frequency.
type Solution struct {
	// Omega is the angular frequency in rad/s.
	Omega float64
	ac    *AC
	x     []complex128
}

// SolveAt solves the network at angular frequency omega (rad/s).
// omega may be 0 (DC); inductors short and capacitors open naturally in
// the stamps.
func (ac *AC) SolveAt(omega float64) (*Solution, error) {
	if omega < 0 {
		return nil, fmt.Errorf("analysis: negative frequency %g", omega)
	}
	if math.IsNaN(omega) || math.IsInf(omega, 0) {
		return nil, fmt.Errorf("analysis: non-finite frequency %g", omega)
	}
	s := complex(0, omega)
	a, b, err := ac.sys.StampAt(s)
	if err != nil {
		return nil, err
	}
	f, err := numeric.Factor(a)
	if err != nil {
		return nil, fmt.Errorf("%w: at ω=%g: %v", ErrNoSolution, omega, err)
	}
	x, err := f.Solve(b)
	if err != nil {
		return nil, fmt.Errorf("%w: at ω=%g: %v", ErrNoSolution, omega, err)
	}
	return &Solution{Omega: omega, ac: ac, x: x}, nil
}

// NodeVoltage returns the phasor voltage of a named node (0 for ground).
func (sol *Solution) NodeVoltage(node string) (complex128, error) {
	i, err := sol.ac.sys.NodeIndex(node)
	if err != nil {
		return 0, err
	}
	if i < 0 {
		return 0, nil
	}
	return sol.x[i], nil
}

// TransferPoint is one point of a frequency response.
type TransferPoint struct {
	// Omega is the angular frequency in rad/s.
	Omega float64
	// H is the complex transfer value V(out)/V(in-source amplitude).
	H complex128
}

// Mag returns |H|.
func (p TransferPoint) Mag() float64 { return cmplx.Abs(p.H) }

// MagDb returns |H| in dB.
func (p TransferPoint) MagDb() float64 { return numeric.Db(p.Mag()) }

// PhaseDeg returns the phase in degrees.
func (p TransferPoint) PhaseDeg() float64 { return cmplx.Phase(p.H) * 180 / math.Pi }

// Response is a sampled frequency response.
type Response struct {
	Points []TransferPoint
}

// Mags returns |H| per point.
func (r Response) Mags() []float64 {
	out := make([]float64, len(r.Points))
	for i, p := range r.Points {
		out[i] = p.Mag()
	}
	return out
}

// PeakMag returns the maximum |H| and the ω at which it occurs.
func (r Response) PeakMag() (float64, float64) {
	var best float64
	var at float64
	for _, p := range r.Points {
		if m := p.Mag(); m > best {
			best, at = m, p.Omega
		}
	}
	return best, at
}

// Transfer computes V(outNode)/amplitude(source) at angular frequency
// omega for the named independent voltage source.
func (ac *AC) Transfer(source, outNode string, omega float64) (complex128, error) {
	sol, err := ac.SolveAt(omega)
	if err != nil {
		return 0, err
	}
	e, ok := ac.circ.Element(source)
	if !ok {
		return 0, fmt.Errorf("analysis: no source element %q", source)
	}
	vs, ok := e.(*circuit.VSource)
	if !ok {
		return 0, fmt.Errorf("analysis: element %q is not a voltage source", source)
	}
	if vs.Amplitude == 0 {
		return 0, fmt.Errorf("analysis: source %q has zero amplitude", source)
	}
	vout, err := sol.NodeVoltage(outNode)
	if err != nil {
		return 0, err
	}
	return vout / vs.Amplitude, nil
}

// Sweep computes the transfer function at each angular frequency in
// omegas.
func (ac *AC) Sweep(source, outNode string, omegas []float64) (Response, error) {
	resp := Response{Points: make([]TransferPoint, 0, len(omegas))}
	for _, w := range omegas {
		h, err := ac.Transfer(source, outNode, w)
		if err != nil {
			return Response{}, err
		}
		resp.Points = append(resp.Points, TransferPoint{Omega: w, H: h})
	}
	return resp, nil
}

// LogSweep sweeps n points logarithmically from wLo to wHi (rad/s).
func (ac *AC) LogSweep(source, outNode string, wLo, wHi float64, n int) (Response, error) {
	if wLo <= 0 || wHi <= wLo {
		return Response{}, fmt.Errorf("analysis: bad log sweep bounds [%g, %g]", wLo, wHi)
	}
	return ac.Sweep(source, outNode, numeric.Logspace(wLo, wHi, n))
}

// Sensitivity estimates d|H(jω)| / d(value) for one component by central
// finite difference with relative step h (e.g. 1e-4). It clones the
// circuit, so the original is untouched.
func Sensitivity(c *circuit.Circuit, comp, source, outNode string, omega, h float64) (float64, error) {
	if h <= 0 {
		return 0, fmt.Errorf("analysis: nonpositive step %g", h)
	}
	base, err := c.Value(comp)
	if err != nil {
		return 0, err
	}
	magAt := func(scale float64) (float64, error) {
		cc := c.Clone()
		if err := cc.SetValue(comp, base*scale); err != nil {
			return 0, err
		}
		ac, err := NewAC(cc)
		if err != nil {
			return 0, err
		}
		hval, err := ac.Transfer(source, outNode, omega)
		if err != nil {
			return 0, err
		}
		return cmplx.Abs(hval), nil
	}
	up, err := magAt(1 + h)
	if err != nil {
		return 0, err
	}
	dn, err := magAt(1 - h)
	if err != nil {
		return 0, err
	}
	return (up - dn) / (2 * h * base), nil
}

// RelativeSensitivity returns the dimensionless sensitivity
// S = (x/|H|)·d|H|/dx, the standard filter-design measure used to rank
// which components most move the response at a frequency.
func RelativeSensitivity(c *circuit.Circuit, comp, source, outNode string, omega, h float64) (float64, error) {
	s, err := Sensitivity(c, comp, source, outNode, omega, h)
	if err != nil {
		return 0, err
	}
	base, err := c.Value(comp)
	if err != nil {
		return 0, err
	}
	ac, err := NewAC(c)
	if err != nil {
		return 0, err
	}
	hval, err := ac.Transfer(source, outNode, omega)
	if err != nil {
		return 0, err
	}
	mag := cmplx.Abs(hval)
	if mag == 0 {
		return 0, fmt.Errorf("analysis: zero response magnitude at ω=%g", omega)
	}
	return s * base / mag, nil
}
