// Package transient performs time-domain simulation of the circuit
// package's networks with the trapezoidal companion-model method — the
// same machinery a production simulator uses. For this repository it
// closes the loop on realism: the noisy-bench experiments can obtain the
// CUT's output waveform by actually integrating the circuit in time,
// rather than assuming the phasor steady state.
//
// Linear elements only (matching the circuit package): R, C, L,
// independent and controlled sources, ideal opamps. Because the network
// is linear and time-invariant, the MNA companion matrix is constant for
// a fixed step, so it is factored once and each step is a single
// back-substitution.
package transient

import (
	"fmt"
	"math"

	"repro/internal/circuit"
	"repro/internal/numeric"
)

// Waveform drives an independent source in the time domain.
type Waveform func(t float64) float64

// Sine returns amp·sin(ωt + phase).
func Sine(amp, omega, phase float64) Waveform {
	return func(t float64) float64 { return amp * math.Sin(omega*t+phase) }
}

// Multitone returns the sum of cosines amp_i·cos(ω_i·t + phase_i).
func Multitone(amps, omegas, phases []float64) (Waveform, error) {
	if len(amps) != len(omegas) || len(phases) != len(omegas) {
		return nil, fmt.Errorf("transient: multitone needs equal-length amp/omega/phase, got %d/%d/%d",
			len(amps), len(omegas), len(phases))
	}
	a := append([]float64(nil), amps...)
	w := append([]float64(nil), omegas...)
	p := append([]float64(nil), phases...)
	return func(t float64) float64 {
		var v float64
		for i := range a {
			v += a[i] * math.Cos(w[i]*t+p[i])
		}
		return v
	}, nil
}

// Config drives a transient run.
type Config struct {
	// Step is the fixed time step h.
	Step float64
	// Duration is the simulated time span; the run produces
	// floor(Duration/Step)+1 points including t = 0.
	Duration float64
	// Sources maps voltage/current source names to their waveforms.
	// Sources not listed hold their AC amplitude's real part as DC.
	Sources map[string]Waveform
}

// Result is a sampled transient solution.
type Result struct {
	// Times holds the sample instants.
	Times []float64
	// nodes maps node name → column in Voltages.
	nodes map[string]int
	// Voltages[i][j] is node j's voltage at Times[i].
	Voltages [][]float64
}

// Voltage returns the waveform of one node.
func (r *Result) Voltage(node string) ([]float64, error) {
	j, ok := r.nodes[node]
	if !ok {
		return nil, fmt.Errorf("transient: no recorded node %q", node)
	}
	out := make([]float64, len(r.Voltages))
	for i := range r.Voltages {
		out[i] = r.Voltages[i][j]
	}
	return out, nil
}

// Run integrates the circuit from zero initial conditions.
//
// Method: trapezoidal rule. Each reactive element is replaced by its
// companion model; for a fixed step the companion conductances are
// constant, so the MNA matrix is assembled and factored once. Reactive
// history currents update the right-hand side every step.
func Run(c *circuit.Circuit, cfg Config) (*Result, error) {
	if cfg.Step <= 0 {
		return nil, fmt.Errorf("transient: nonpositive step %g", cfg.Step)
	}
	if cfg.Duration < cfg.Step {
		return nil, fmt.Errorf("transient: duration %g shorter than one step %g", cfg.Duration, cfg.Step)
	}
	sys, err := c.Assemble()
	if err != nil {
		return nil, err
	}
	n := sys.Size()
	h := cfg.Step

	// Assemble the constant companion matrix. Strategy: stamp the
	// circuit at the "trapezoidal equivalent frequency" is not exact, so
	// instead each element is handled explicitly below.
	a := numeric.NewMatrix(n, n)
	type capState struct {
		i, j int     // node indices (-1 = ground)
		g    float64 // companion conductance 2C/h
		v    float64 // previous voltage across
		ic   float64 // previous current through
	}
	type indState struct {
		i, j, k int     // nodes and branch-current row
		r       float64 // companion resistance 2L/h
		v       float64 // previous voltage across
		il      float64 // previous current through
	}
	type vsrcState struct {
		k    int // branch row
		wave Waveform
	}
	type isrcState struct {
		i, j int
		wave Waveform
	}
	var caps []*capState
	var inds []*indState
	var vsrcs []*vsrcState
	var isrcs []*isrcState

	nodeIdx := func(name string) (int, error) { return sys.NodeIndex(name) }
	add := func(i, j int, v float64) {
		if i >= 0 && j >= 0 {
			a.Add(i, j, complex(v, 0))
		}
	}
	addDiagPair := func(i, j int, g float64) {
		if i >= 0 {
			a.Add(i, i, complex(g, 0))
		}
		if j >= 0 {
			a.Add(j, j, complex(g, 0))
		}
		add(i, j, -g)
		add(j, i, -g)
	}

	for _, e := range c.Elements() {
		switch el := e.(type) {
		case *circuit.Resistor:
			i, err := nodeIdx(el.Nodes()[0])
			if err != nil {
				return nil, err
			}
			j, err := nodeIdx(el.Nodes()[1])
			if err != nil {
				return nil, err
			}
			addDiagPair(i, j, 1/el.Ohms)
		case *circuit.Capacitor:
			i, err := nodeIdx(el.Nodes()[0])
			if err != nil {
				return nil, err
			}
			j, err := nodeIdx(el.Nodes()[1])
			if err != nil {
				return nil, err
			}
			g := 2 * el.Farads / h
			addDiagPair(i, j, g)
			caps = append(caps, &capState{i: i, j: j, g: g})
		case *circuit.Inductor:
			i, err := nodeIdx(el.Nodes()[0])
			if err != nil {
				return nil, err
			}
			j, err := nodeIdx(el.Nodes()[1])
			if err != nil {
				return nil, err
			}
			k, ok := sys.BranchIndex(el.Name())
			if !ok {
				return nil, fmt.Errorf("transient: inductor %s lost its branch", el.Name())
			}
			r := 2 * el.Henries / h
			// Branch: v(i)-v(j) - r·I = rhs (history); KCL couplings.
			if i >= 0 {
				a.Add(i, k, 1)
				a.Add(k, i, 1)
			}
			if j >= 0 {
				a.Add(j, k, -1)
				a.Add(k, j, -1)
			}
			a.Add(k, k, complex(-r, 0))
			inds = append(inds, &indState{i: i, j: j, k: k, r: r})
		case *circuit.VSource:
			i, err := nodeIdx(el.Nodes()[0])
			if err != nil {
				return nil, err
			}
			j, err := nodeIdx(el.Nodes()[1])
			if err != nil {
				return nil, err
			}
			k, ok := sys.BranchIndex(el.Name())
			if !ok {
				return nil, fmt.Errorf("transient: source %s lost its branch", el.Name())
			}
			if i >= 0 {
				a.Add(i, k, 1)
				a.Add(k, i, 1)
			}
			if j >= 0 {
				a.Add(j, k, -1)
				a.Add(k, j, -1)
			}
			wave := cfg.Sources[el.Name()]
			if wave == nil {
				dc := real(el.Amplitude)
				wave = func(float64) float64 { return dc }
			}
			vsrcs = append(vsrcs, &vsrcState{k: k, wave: wave})
		case *circuit.ISource:
			i, err := nodeIdx(el.Nodes()[0])
			if err != nil {
				return nil, err
			}
			j, err := nodeIdx(el.Nodes()[1])
			if err != nil {
				return nil, err
			}
			wave := cfg.Sources[el.Name()]
			if wave == nil {
				dc := real(el.Amplitude)
				wave = func(float64) float64 { return dc }
			}
			isrcs = append(isrcs, &isrcState{i: i, j: j, wave: wave})
		case *circuit.VCVS, *circuit.VCCS, *circuit.CCVS, *circuit.CCCS, *circuit.IdealOpAmp:
			// Frequency-independent elements stamp identically at s = 0;
			// reuse the AC stamp on the real companion matrix.
			st := &stampAdapter{target: a, sys: sys}
			if err := stampReal(e, st); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("transient: unsupported element %T (%s)", e, e.Name())
		}
	}

	lu, err := numeric.Factor(a)
	if err != nil {
		return nil, fmt.Errorf("transient: companion matrix singular: %w", err)
	}

	steps := int(cfg.Duration/h) + 1
	nodeNames := c.Nodes()
	nodeCol := make(map[string]int, len(nodeNames))
	cols := make([]int, len(nodeNames))
	for idx, name := range nodeNames {
		mi, err := sys.NodeIndex(name)
		if err != nil {
			return nil, err
		}
		nodeCol[name] = idx
		cols[idx] = mi
	}
	res := &Result{nodes: nodeCol}

	rhs := make([]complex128, n)
	x := make([]complex128, n)
	vAt := func(sol []complex128, i int) float64 {
		if i < 0 {
			return 0
		}
		return real(sol[i])
	}

	for step := 0; step < steps; step++ {
		t := float64(step) * h
		for i := range rhs {
			rhs[i] = 0
		}
		for _, vs := range vsrcs {
			rhs[vs.k] += complex(vs.wave(t), 0)
		}
		for _, is := range isrcs {
			v := is.wave(t)
			if is.i >= 0 {
				rhs[is.i] -= complex(v, 0)
			}
			if is.j >= 0 {
				rhs[is.j] += complex(v, 0)
			}
		}
		if step > 0 {
			// Trapezoidal history terms.
			for _, cs := range caps {
				ieq := cs.g*cs.v + cs.ic
				if cs.i >= 0 {
					rhs[cs.i] += complex(ieq, 0)
				}
				if cs.j >= 0 {
					rhs[cs.j] -= complex(ieq, 0)
				}
			}
			for _, ls := range inds {
				veq := ls.v + ls.r*ls.il
				rhs[ls.k] += complex(-veq, 0)
			}
		}
		if err := lu.SolveInto(x, rhs); err != nil {
			return nil, err
		}
		// Record node voltages.
		row := make([]float64, len(cols))
		for idx, mi := range cols {
			row[idx] = vAt(x, mi)
		}
		res.Times = append(res.Times, t)
		res.Voltages = append(res.Voltages, row)

		// Update reactive history.
		for _, cs := range caps {
			vNew := vAt(x, cs.i) - vAt(x, cs.j)
			iNew := cs.g*(vNew-cs.v) - cs.ic
			if step == 0 {
				// Cold start from zero state: the first point is the DC
				// solve; take it as the initial condition.
				iNew = 0
			}
			cs.v, cs.ic = vNew, iNew
		}
		for _, ls := range inds {
			vNew := vAt(x, ls.i) - vAt(x, ls.j)
			iNew := real(x[ls.k])
			ls.v, ls.il = vNew, iNew
		}
	}
	return res, nil
}

// stampAdapter lets frequency-independent AC stamps write into the real
// companion matrix.
type stampAdapter struct {
	target *numeric.Matrix
	sys    *circuit.System
}

// stampReal re-stamps a frequency-independent element at s = 0 into the
// companion matrix by building a tiny Stamp around it.
func stampReal(e circuit.Element, ad *stampAdapter) error {
	st, err := ad.sys.NewStamp(ad.target, make([]complex128, ad.target.Rows()), 0)
	if err != nil {
		return err
	}
	return e.Stamp(st)
}
