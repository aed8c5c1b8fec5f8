// Package opamp provides a functional opamp macromodel in the spirit of
// the FFM (functional fault model) of Calvano et al. (JETTA 2001), the
// paper's reference [7]: an opamp is characterized by a small set of
// functional parameters — DC open-loop gain, gain-bandwidth product,
// input resistance, output resistance — and an active-device fault is a
// percentage deviation of one of those parameters.
//
// The macromodel expands into primitive MNA elements (resistors, one
// capacitor, one VCVS), so the analysis package needs no special cases
// and an active-device fault is a deviation of one of those elements
// (circuits.NFLowpass7Macro makes them fault targets).
package opamp

import (
	"fmt"

	"repro/internal/circuit"
)

// Params are the functional parameters of the single-pole macromodel.
type Params struct {
	// A0 is the DC open-loop voltage gain (dimensionless, e.g. 2e5).
	A0 float64
	// GBW is the gain-bandwidth product in rad/s (e.g. 2π·1MHz).
	GBW float64
	// Rin is the differential input resistance in ohms.
	Rin float64
	// Rout is the output resistance in ohms.
	Rout float64
}

// Ideal returns parameters so extreme the macromodel behaves nearly
// ideally over the audio band; useful to cross-check macromodel circuits
// against their IdealOpAmp versions.
func Ideal() Params {
	return Params{A0: 1e9, GBW: 1e12, Rin: 1e12, Rout: 1e-3}
}

// Validate reports parameter sanity errors.
func (p Params) Validate() error {
	if p.A0 <= 0 {
		return fmt.Errorf("opamp: A0 must be positive, got %g", p.A0)
	}
	if p.GBW <= 0 {
		return fmt.Errorf("opamp: GBW must be positive, got %g", p.GBW)
	}
	if p.Rin <= 0 {
		return fmt.Errorf("opamp: Rin must be positive, got %g", p.Rin)
	}
	if p.Rout <= 0 {
		return fmt.Errorf("opamp: Rout must be positive, got %g", p.Rout)
	}
	return nil
}

// Pole returns the dominant-pole frequency ω_p = GBW / A0 in rad/s.
func (p Params) Pole() float64 { return p.GBW / p.A0 }

// Expand adds the macromodel's primitive elements to circuit c for an
// opamp named name with the given input and output nodes. The expansion
// uses three internal nodes derived from the name.
//
// Topology:
//
//	inP —[Rin]— inN                      (differential input resistance)
//	VCVS A0·(V(inP)-V(inN)) → node g     (ideal gain stage)
//	g —[Rp]—(p)—[Cp to ground]           (dominant pole ω_p = GBW/A0)
//	p —[Rout]— out                       (output resistance)
//
// The pole RC uses Rp = 1 kΩ and Cp = 1/(Rp·ω_p).
func Expand(c *circuit.Circuit, name, inP, inN, out string, p Params) error {
	if err := p.Validate(); err != nil {
		return err
	}
	gNode := name + ".g"
	pNode := name + ".p"
	const rp = 1000.0
	cp := 1 / (rp * p.Pole())
	els := []circuit.Element{
		circuit.NewResistor(name+".Rin", inP, inN, p.Rin),
		circuit.NewVCVS(name+".E", gNode, "0", inP, inN, p.A0),
		circuit.NewResistor(name+".Rp", gNode, pNode, rp),
		circuit.NewCapacitor(name+".Cp", pNode, "0", cp),
		circuit.NewResistor(name+".Rout", pNode, out, p.Rout),
	}
	for _, e := range els {
		if err := c.Add(e); err != nil {
			return err
		}
	}
	return nil
}
