package engine

import (
	"context"
	"fmt"

	"repro/internal/rerr"
)

// boltzmann is k_B in J/K (mirrors analysis.Boltzmann; the engine stays
// below the analysis layer, so the constant is restated rather than
// imported — the noise tests pin the two paths against each other).
const boltzmann = 1.380649e-23

// SourceAmplitude returns |amplitude| of the driving source — the
// normalization the engine applies to every response magnitude. Noise
// voltages must be divided by it before they are compared against
// signature-space quantities.
func (e *Engine) SourceAmplitude() float64 { return e.ampAbs }

// OutputNoisePSD evaluates the thermal (Johnson) output-noise power
// spectral density at each angular frequency (finite, ≥ 0) on the
// column solver: every resistor is exactly one conductance slot whose
// sparse u-pattern is the ±1 current-injection pattern between its
// nodes, so the noise transfer from resistor r is h_r = z_r[out] with
// z_r = A(jω)⁻¹u_r — the z[out] read the column solver makes for every
// distinct slot of a plan (Rohrer, Nagel, Meyer & Weber, IEEE JSSC
// 1971). Per frequency it runs the golden factorization and those reads
// (factorColumn) for the conductance plan on SolveInto's single-worker
// column driver, and sums 4·k_B·T·|h_r|²/R_r (V²/Hz) — the
// current-noise form i_n² = 4kT/R through the transimpedance |h_r|.
//
// The result matches analysis.OutputNoise's clone-based evaluation
// (silence sources, inject a unit AC current across each resistor,
// re-solve) because stamping is linear: the template matrix equals the
// silenced clone's matrix, and the injection RHS equals −u.
func (e *Engine) OutputNoisePSD(ctx context.Context, omegas []float64, tempK float64) ([]float64, error) {
	if tempK <= 0 {
		return nil, fmt.Errorf("%w: engine: temperature %g K must be positive", rerr.ErrBadConfig, tempK)
	}
	if len(omegas) == 0 {
		return nil, fmt.Errorf("%w: engine: no frequencies", rerr.ErrBadConfig)
	}
	for i, w := range omegas {
		if checkOmega(w) != nil {
			return nil, fmt.Errorf("%w: engine: frequency %d is %g, want finite and ≥ 0", rerr.ErrBadConfig, i, w)
		}
	}
	if ctx == nil {
		ctx = context.Background()
	}
	var p Plan
	e.conductancePlan(&p)
	if len(p.distinct) == 0 {
		return nil, fmt.Errorf("%w: engine: circuit has no resistors to generate thermal noise", rerr.ErrBadConfig)
	}
	var b Batch // holds the sparse-vector plan
	e.planSparseVector(&p, &b)
	t := e.tmpl
	out := make([]float64, len(omegas))
	err := e.solveSerial(ctx, &p, omegas, &b, func(ws *workspace, j int) error {
		if _, err := e.factorColumn(ws, omegas[j], &p, &b, j); err != nil {
			return err
		}
		var total float64
		for zi, si := range p.distinct {
			h := ws.zoutc[zi]
			total += 4 * boltzmann * tempK * (real(h)*real(h) + imag(h)*imag(h)) / t.slots[si].value
		}
		out[j] = total
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}
