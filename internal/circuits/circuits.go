// Package circuits is the benchmark library of analog circuits under test
// (CUTs). Each constructor returns a fully wired circuit plus the
// metadata the diagnosis pipeline needs: the driving source, the output
// node, the list of passive components eligible for parametric faults,
// and the nominal characteristic frequency for choosing search bands.
//
// NFLowpass7 is the stand-in for the paper's CUT (its doc comment gives
// the rationale: seven passives with separable trajectories); the others
// feed the generality experiment E9.
package circuits

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/opamp"
)

// CUT bundles a circuit under test with its measurement metadata.
type CUT struct {
	// Circuit is the golden (nominal) network.
	Circuit *circuit.Circuit
	// Source is the name of the driving voltage source.
	Source string
	// Output is the observed node.
	Output string
	// Passives lists the parametric-fault targets in schematic order.
	Passives []string
	// Omega0 is the nominal characteristic angular frequency in rad/s,
	// used to center frequency searches.
	Omega0 float64
	// Description is a one-line summary for reports.
	Description string
}

// Validate assembles the circuit once to catch wiring mistakes early and
// confirms every declared passive exists and is Valued.
func (c CUT) Validate() error {
	if _, err := c.Circuit.Assemble(); err != nil {
		return err
	}
	for _, p := range c.Passives {
		if _, err := c.Circuit.Value(p); err != nil {
			return fmt.Errorf("circuits: CUT %s: passive %q: %w", c.Circuit.Name(), p, err)
		}
	}
	if _, ok := c.Circuit.Element(c.Source); !ok {
		return fmt.Errorf("circuits: CUT %s: missing source %q", c.Circuit.Name(), c.Source)
	}
	if !c.Circuit.HasNode(c.Output) {
		return fmt.Errorf("circuits: CUT %s: missing output node %q", c.Circuit.Name(), c.Output)
	}
	return nil
}

// NFLowpass7 is the reproduction stand-in for the paper's CUT: a
// normalized negative-feedback low-pass filter with exactly seven passive
// components.
//
// Topology: an RC input section (R1, C1) drives the canonical
// multiple-negative-feedback (MFB) low-pass stage (R2, C2, R3, R4, C3)
// around a single ideal opamp:
//
//	in —R1— m —R2— a —R3— vg —(U1−)
//	          C1→gnd  C2→gnd  C3: vg—out
//	                  R4: a—out          U1 out = out
//
// Normalized values (all resistors 1 Ω) put the passband edge near
// ω ≈ 1 rad/s with a mildly peaked third-order roll-off. Every one of
// the seven passives enters H(s) through an independent dependence, so
// all seven single-fault trajectories are separable.
func NFLowpass7() CUT {
	c := circuit.New("nf-lowpass-7")
	c.MustAdd(circuit.NewVSource("Vin", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "m", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "m", "0", 1))
	c.MustAdd(circuit.NewResistor("R2", "m", "a", 1))
	c.MustAdd(circuit.NewCapacitor("C2", "a", "0", 2))
	c.MustAdd(circuit.NewResistor("R3", "a", "vg", 1))
	c.MustAdd(circuit.NewResistor("R4", "a", "out", 1))
	c.MustAdd(circuit.NewCapacitor("C3", "vg", "out", 0.5))
	c.MustAdd(circuit.NewIdealOpAmp("U1", "0", "vg", "out"))
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      "out",
		Passives:    []string{"R1", "C1", "R2", "C2", "R3", "R4", "C3"},
		Omega0:      1,
		Description: "normalized 7-passive negative-feedback (MFB) low-pass, the paper-CUT stand-in",
	}
}

// NFLowpass7Macro is NFLowpass7 with the ideal opamp replaced by the
// FFM-style macromodel, enabling active-device (macromodel parameter)
// faults per the paper's fault model. Because the normalized filter works
// near ω = 1 rad/s, near-ideal parameters are used so the golden response
// matches NFLowpass7 closely.
func NFLowpass7Macro(p opamp.Params) (CUT, error) {
	c := circuit.New("nf-lowpass-7-macro")
	c.MustAdd(circuit.NewVSource("Vin", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "m", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "m", "0", 1))
	c.MustAdd(circuit.NewResistor("R2", "m", "a", 1))
	c.MustAdd(circuit.NewCapacitor("C2", "a", "0", 2))
	c.MustAdd(circuit.NewResistor("R3", "a", "vg", 1))
	c.MustAdd(circuit.NewResistor("R4", "a", "out", 1))
	c.MustAdd(circuit.NewCapacitor("C3", "vg", "out", 0.5))
	if err := opamp.Expand(c, "U1", "0", "vg", "out", p); err != nil {
		return CUT{}, err
	}
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      "out",
		Passives:    []string{"R1", "C1", "R2", "C2", "R3", "R4", "C3"},
		Omega0:      1,
		Description: "7-passive NF low-pass with FFM opamp macromodel",
	}, nil
}

// SallenKeyLP is a unity-gain Sallen–Key second-order low-pass,
// normalized to ω0 = 1 rad/s, Q ≈ 0.707 (Butterworth):
// R1 = R2 = 1 Ω, C1 = 1.414 F (to + input), C2 = 0.7071 F (to ground).
func SallenKeyLP() CUT {
	c := circuit.New("sallen-key-lp")
	c.MustAdd(circuit.NewVSource("Vin", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "x", 1))
	c.MustAdd(circuit.NewResistor("R2", "x", "p", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "x", "out", 1.4142))
	c.MustAdd(circuit.NewCapacitor("C2", "p", "0", 0.70711))
	// Unity-gain buffer: output fed back to the inverting input.
	c.MustAdd(circuit.NewIdealOpAmp("U1", "p", "out", "out"))
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      "out",
		Passives:    []string{"R1", "R2", "C1", "C2"},
		Omega0:      1,
		Description: "unity-gain Sallen–Key Butterworth low-pass (4 passives)",
	}
}

// MFBBandpass is a multiple-feedback bandpass, normalized to center
// ω0 ≈ 1 rad/s with Q ≈ 2: R1 = 1, R2 = 4 (feedback), R3 = 0.2,
// C1 = C2 = 1.
func MFBBandpass() CUT {
	c := circuit.New("mfb-bandpass")
	c.MustAdd(circuit.NewVSource("Vin", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("R1", "in", "x", 1))
	c.MustAdd(circuit.NewResistor("R3", "x", "0", 0.2))
	c.MustAdd(circuit.NewCapacitor("C1", "x", "vg", 1))
	c.MustAdd(circuit.NewCapacitor("C2", "x", "out", 1))
	c.MustAdd(circuit.NewResistor("R2", "vg", "out", 4))
	c.MustAdd(circuit.NewIdealOpAmp("U1", "0", "vg", "out"))
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      "out",
		Passives:    []string{"R1", "R2", "R3", "C1", "C2"},
		Omega0:      1,
		Description: "multiple-feedback bandpass, Q ≈ 2 (5 passives)",
	}
}

// KHNLowpass is a Kerwin–Huelsman–Newcomb state-variable filter's
// low-pass output, normalized to ω0 = 1 rad/s, with 8 passives and 3
// opamps.
func KHNLowpass() CUT {
	c := circuit.New("khn-lowpass")
	c.MustAdd(circuit.NewVSource("Vin", "in", "0", 1))
	// Summing amplifier U1: inverting input vg1 takes Vin via R1 and the
	// lowpass feedback via R2; non-inverting input pp takes the bandpass
	// feedback via R5 against R6 to ground (sets Q).
	c.MustAdd(circuit.NewResistor("R1", "in", "vg1", 1))
	c.MustAdd(circuit.NewResistor("R2", "lp", "vg1", 1))
	c.MustAdd(circuit.NewResistor("R3", "hp", "vg1", 1)) // feedback around U1
	c.MustAdd(circuit.NewResistor("R5", "bp", "pp", 1))
	c.MustAdd(circuit.NewResistor("R6", "pp", "0", 1))
	c.MustAdd(circuit.NewIdealOpAmp("U1", "pp", "vg1", "hp"))
	// Integrator U2: hp → bp.
	c.MustAdd(circuit.NewResistor("R4", "hp", "vg2", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "bp", "vg2", 1))
	c.MustAdd(circuit.NewIdealOpAmp("U2", "0", "vg2", "bp"))
	// Integrator U3: bp → lp.
	c.MustAdd(circuit.NewResistor("R7", "bp", "vg3", 1))
	c.MustAdd(circuit.NewCapacitor("C2", "lp", "vg3", 1))
	c.MustAdd(circuit.NewIdealOpAmp("U3", "0", "vg3", "lp"))
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      "lp",
		Passives:    []string{"R1", "R2", "R3", "R4", "R5", "R6", "R7", "C1", "C2"},
		Omega0:      1,
		Description: "KHN state-variable low-pass output (9 passives)",
	}
}

// TowThomasLP is the classic three-opamp two-integrator-loop biquad,
// normalized to ω0 = 1 rad/s, Q = 1, unity DC gain. Note the gain-ratio
// pair (R5, R6) of the inverter is mutually ambiguous by construction —
// included deliberately as a known-hard diagnosis case.
func TowThomasLP() CUT {
	c := circuit.New("tow-thomas-lp")
	c.MustAdd(circuit.NewVSource("Vin", "in", "0", 1))
	// U1: lossy summing integrator (bandpass output).
	c.MustAdd(circuit.NewResistor("R1", "in", "vg1", 1))  // input
	c.MustAdd(circuit.NewResistor("RQ", "bp", "vg1", 1))  // damping (Q)
	c.MustAdd(circuit.NewCapacitor("C1", "bp", "vg1", 1)) // integrator
	c.MustAdd(circuit.NewResistor("R2", "inv", "vg1", 1)) // loop feedback
	c.MustAdd(circuit.NewIdealOpAmp("U1", "0", "vg1", "bp"))
	// U2: pure inverting integrator (lowpass output, inverted).
	c.MustAdd(circuit.NewResistor("R3", "bp", "vg2", 1))
	c.MustAdd(circuit.NewCapacitor("C2", "lp", "vg2", 1))
	c.MustAdd(circuit.NewIdealOpAmp("U2", "0", "vg2", "lp"))
	// U3: unity inverter closing the loop.
	c.MustAdd(circuit.NewResistor("R5", "lp", "vg3", 1))
	c.MustAdd(circuit.NewResistor("R6", "inv", "vg3", 1))
	c.MustAdd(circuit.NewIdealOpAmp("U3", "0", "vg3", "inv"))
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      "lp",
		Passives:    []string{"R1", "RQ", "C1", "R2", "R3", "C2", "R5", "R6"},
		Omega0:      1,
		Description: "Tow-Thomas two-integrator-loop biquad (8 passives, one ambiguous pair)",
	}
}

// TwinTNotch is a passive twin-T notch at ω0 = 1 rad/s buffered by an
// ideal opamp follower, with a source resistor.
func TwinTNotch() CUT {
	c := circuit.New("twin-t-notch")
	c.MustAdd(circuit.NewVSource("Vin", "src", "0", 1))
	c.MustAdd(circuit.NewResistor("Rs", "src", "in", 0.05))
	// High-pass T: C1 — C2 with R3 to ground at the junction.
	c.MustAdd(circuit.NewCapacitor("C1", "in", "tc", 1))
	c.MustAdd(circuit.NewCapacitor("C2", "tc", "out", 1))
	c.MustAdd(circuit.NewResistor("R3", "tc", "0", 0.5))
	// Low-pass T: R1 — R2 with C3 to ground at the junction.
	c.MustAdd(circuit.NewResistor("R1", "in", "tr", 1))
	c.MustAdd(circuit.NewResistor("R2", "tr", "out", 1))
	c.MustAdd(circuit.NewCapacitor("C3", "tr", "0", 2))
	// Buffer to observe the notch without loading.
	c.MustAdd(circuit.NewIdealOpAmp("U1", "out", "buf", "buf"))
	c.MustAdd(circuit.NewResistor("RL", "buf", "0", 1))
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      "buf",
		Passives:    []string{"Rs", "C1", "C2", "R3", "R1", "R2", "C3", "RL"},
		Omega0:      1,
		Description: "buffered twin-T notch at ω0 = 1 rad/s (8 passives)",
	}
}

// RCLadder returns an n-section passive RC low-pass ladder
// (R = 1 Ω, C = 1 F per section), a pure-passive CUT with strongly
// overlapping component influences — a stress test for diagnosis.
func RCLadder(n int) (CUT, error) {
	if n < 1 {
		return CUT{}, fmt.Errorf("circuits: RCLadder needs n >= 1, got %d", n)
	}
	c := circuit.New(fmt.Sprintf("rc-ladder-%d", n))
	c.MustAdd(circuit.NewVSource("Vin", "n0", "0", 1))
	passives := make([]string, 0, 2*n)
	for i := 1; i <= n; i++ {
		rn := fmt.Sprintf("R%d", i)
		cn := fmt.Sprintf("C%d", i)
		prev := fmt.Sprintf("n%d", i-1)
		cur := fmt.Sprintf("n%d", i)
		c.MustAdd(circuit.NewResistor(rn, prev, cur, 1))
		c.MustAdd(circuit.NewCapacitor(cn, cur, "0", 1))
		passives = append(passives, rn, cn)
	}
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      fmt.Sprintf("n%d", n),
		Passives:    passives,
		Omega0:      1.0 / float64(n), // sections compound; band shrinks with n
		Description: fmt.Sprintf("passive %d-section RC ladder (%d passives)", n, 2*n),
	}, nil
}

// LCLadderLP is a doubly terminated third-order Butterworth LC ladder
// (Rs = RL = 1 Ω, L1 = L3 via the dual: C1 = 1 F, L2 = 2 H, C3 = 1 F),
// normalized to ω0 = 1 rad/s. A pure-passive CUT that exercises the
// inductor stamps; its insertion loss gives |H| → 0.5 in band.
func LCLadderLP() CUT {
	c := circuit.New("lc-ladder-lp")
	c.MustAdd(circuit.NewVSource("Vin", "src", "0", 1))
	c.MustAdd(circuit.NewResistor("Rs", "src", "a", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "a", "0", 1))
	c.MustAdd(circuit.NewInductor("L2", "a", "b", 2))
	c.MustAdd(circuit.NewCapacitor("C3", "b", "0", 1))
	c.MustAdd(circuit.NewResistor("RL", "b", "0", 1))
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      "b",
		Passives:    []string{"Rs", "C1", "L2", "C3", "RL"},
		Omega0:      1,
		Description: "doubly terminated 3rd-order Butterworth LC ladder (5 passives)",
	}
}

// RLCNotch is a passive series-resonator band-stop: the L1–C1 branch
// shorts the output node at ω0 = 1/sqrt(L1·C1) = 1 rad/s, giving an
// ideally infinite null. A small branch resistor Rq sets the notch depth
// and Q realistically.
func RLCNotch() CUT {
	c := circuit.New("rlc-notch")
	c.MustAdd(circuit.NewVSource("Vin", "in", "0", 1))
	c.MustAdd(circuit.NewResistor("Rs", "in", "out", 1))
	c.MustAdd(circuit.NewInductor("L1", "out", "m", 1))
	c.MustAdd(circuit.NewCapacitor("C1", "m", "q", 1))
	c.MustAdd(circuit.NewResistor("Rq", "q", "0", 0.05))
	c.MustAdd(circuit.NewResistor("RL", "out", "0", 10))
	return CUT{
		Circuit:     c,
		Source:      "Vin",
		Output:      "out",
		Passives:    []string{"Rs", "L1", "C1", "Rq", "RL"},
		Omega0:      1,
		Description: "passive series-resonator band-stop at ω0 = 1 rad/s (5 passives)",
	}
}

// All returns every fixed benchmark CUT (the parameterized RCLadder is
// instantiated at 3 sections).
func All() []CUT {
	ladder, err := RCLadder(3)
	if err != nil {
		panic(err) // n=3 is a compile-time constant; cannot fail
	}
	return []CUT{
		NFLowpass7(),
		SallenKeyLP(),
		MFBBandpass(),
		KHNLowpass(),
		TowThomasLP(),
		TwinTNotch(),
		LCLadderLP(),
		RLCNotch(),
		ladder,
	}
}

// ByName returns the CUT with the given circuit name. Beyond the fixed
// All() set it resolves the parameterized scaling families by suffix —
// e.g. "rc-ladder-128" or "opamp-cascade-16" (see Families).
func ByName(name string) (CUT, error) {
	for _, c := range All() {
		if c.Circuit.Name() == name {
			return c, nil
		}
	}
	if cut, ok, err := parameterized(name); ok {
		if err != nil {
			return CUT{}, err
		}
		return cut, nil
	}
	return CUT{}, fmt.Errorf("circuits: no benchmark named %q (fixed: %s; families: %s)",
		name, strings.Join(Names(), ", "), strings.Join(Families(), ", "))
}

// Names lists the available benchmark names.
func Names() []string {
	all := All()
	out := make([]string, len(all))
	for i, c := range all {
		out[i] = c.Circuit.Name()
	}
	return out
}
