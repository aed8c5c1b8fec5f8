package analysis

import (
	"fmt"
	"math/cmplx"

	"repro/internal/circuit"
)

// Boltzmann constant (J/K) for thermal-noise densities.
const Boltzmann = 1.380649e-23

// NoiseContribution is one resistor's share of the output noise.
type NoiseContribution struct {
	// Element is the resistor's name.
	Element string
	// PSD is the contribution to the output noise power spectral
	// density in V²/Hz.
	PSD float64
}

// OutputNoise computes the thermal (Johnson–Nyquist) output noise power
// spectral density at the given node and angular frequency, by brute
// superposition: each resistor R contributes a 4kTR V²/Hz series noise
// source, which reaches the output through the squared magnitude of its
// individual transfer function. Independent sources are zeroed
// implicitly (their phasor amplitudes do not enter these solves).
//
// The per-element breakdown is returned sorted by insertion order;
// summing PSDs gives the total because thermal sources are independent.
func OutputNoise(c *circuit.Circuit, outNode string, omega, tempK float64) ([]NoiseContribution, float64, error) {
	if tempK <= 0 {
		return nil, 0, fmt.Errorf("analysis: nonpositive temperature %g K", tempK)
	}
	var out []NoiseContribution
	var total float64
	for _, e := range c.Elements() {
		r, ok := e.(*circuit.Resistor)
		if !ok {
			continue
		}
		// Transfer from a series voltage source in place of the resistor
		// to the output. Equivalent Norton form: inject a unit current
		// across the resistor's terminals and scale: a series source v_n
		// with the resistor produces the same response as current
		// v_n/R across it.
		h, err := transferFromCurrentInjection(c, r.Nodes()[0], r.Nodes()[1], outNode, omega)
		if err != nil {
			return nil, 0, err
		}
		// Series-source transfer = (current-injection transfer)/R.
		hv := cmplx.Abs(h) / r.Ohms
		psd := 4 * Boltzmann * tempK * r.Ohms * hv * hv
		out = append(out, NoiseContribution{Element: r.Name(), PSD: psd})
		total += psd
	}
	if len(out) == 0 {
		return nil, 0, fmt.Errorf("analysis: circuit has no resistors")
	}
	return out, total, nil
}

// transferFromCurrentInjection solves the network with all independent
// sources silenced and a unit AC current injected from node a to node b,
// returning the resulting output-node voltage.
func transferFromCurrentInjection(c *circuit.Circuit, a, b, outNode string, omega float64) (complex128, error) {
	probe := c.Clone()
	// Silence independent sources: voltage sources become 0 V (still
	// short circuits structurally), current sources 0 A.
	for _, e := range probe.Elements() {
		switch el := e.(type) {
		case *circuit.VSource:
			el.Amplitude = 0
		case *circuit.ISource:
			el.Amplitude = 0
		}
	}
	inj := circuit.NewISource("InoiseProbe", a, b, 1)
	if err := probe.Add(inj); err != nil {
		return 0, err
	}
	ac, err := NewAC(probe)
	if err != nil {
		return 0, err
	}
	sol, err := ac.SolveAt(omega)
	if err != nil {
		return 0, err
	}
	return sol.NodeVoltage(outNode)
}
