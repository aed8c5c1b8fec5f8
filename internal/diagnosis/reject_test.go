package diagnosis

import (
	"math/rand"
	"testing"

	"repro/internal/fault"
	"repro/internal/geometry"
)

func TestRejectedEmptyResult(t *testing.T) {
	empty := &Result{}
	if !empty.Rejected(1, 0.05) {
		t.Fatal("empty result not rejected")
	}
}

func TestRejectedDegenerateParams(t *testing.T) {
	r := &Result{Candidates: []Candidate{{Component: "R1", Distance: 10}}}
	if r.Rejected(0, 0.05) || r.Rejected(1, 0) {
		t.Fatal("degenerate extent/ratio should not reject")
	}
}

func TestSingleFaultsNotRejected(t *testing.T) {
	// Genuine single faults (even off-grid) must survive a reasonable
	// rejection threshold.
	d, dg := setup(t, []float64{0.5, 2})
	ext := dg.Extent()
	if ext <= 0 {
		t.Fatalf("extent = %g", ext)
	}
	trials := HoldOutTrials(d.Universe(), DefaultHoldOutDeviations())
	rejected := 0
	for _, f := range trials {
		res, err := dg.DiagnoseSet(d, f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Rejected(ext, 0.05) {
			rejected++
		}
	}
	if frac := float64(rejected) / float64(len(trials)); frac > 0.1 {
		t.Fatalf("%.0f%% of genuine single faults rejected", frac*100)
	}
}

func TestDoubleFaultsMostlyRejected(t *testing.T) {
	// Points produced by two simultaneous large faults generally do not
	// lie on any single-fault trajectory; the rejection test should fire
	// for a solid majority of them.
	d, dg := setup(t, []float64{0.5, 2})
	ext := dg.Extent()
	rng := rand.New(rand.NewSource(9))
	rejected, total := 0, 0
	for trial := 0; trial < 40; trial++ {
		m, err := fault.RandomMulti(d.Universe(), 2, rng)
		if err != nil {
			t.Fatal(err)
		}
		// Only large double faults are reliably off-manifold; small ones
		// are legitimately close to single-fault behaviour.
		big := true
		for _, f := range m {
			if f.Deviation < 0.3 && f.Deviation > -0.3 {
				big = false
			}
		}
		if !big {
			continue
		}
		faulty, err := m.Apply(d.Golden())
		if err != nil {
			t.Fatal(err)
		}
		sig, err := d.CircuitSignature(faulty, dg.Map().Omegas)
		if err != nil {
			t.Fatal(err)
		}
		res, err := dg.Diagnose(geometry.VecN(sig))
		if err != nil {
			t.Fatal(err)
		}
		total++
		if res.Rejected(ext, 0.05) {
			rejected++
		}
	}
	if total < 5 {
		t.Fatalf("only %d large double faults sampled", total)
	}
	if frac := float64(rejected) / float64(total); frac < 0.5 {
		t.Fatalf("only %.0f%% of large double faults rejected", frac*100)
	}
}

func TestCircuitSignatureMatchesFaultSignature(t *testing.T) {
	// For a single fault, CircuitSignature(faulty circuit) must equal
	// Signature(fault).
	d, dg := setup(t, []float64{0.5, 2})
	f := fault.Fault{Component: "R2", Deviation: 0.25}
	direct, err := d.Signature(f, dg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	faulty, err := f.Apply(d.Golden())
	if err != nil {
		t.Fatal(err)
	}
	viaCircuit, err := d.CircuitSignature(faulty, dg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	for i := range direct {
		if diff := direct[i] - viaCircuit[i]; diff > 1e-12 || diff < -1e-12 {
			t.Fatalf("signatures differ at %d: %g vs %g", i, direct[i], viaCircuit[i])
		}
	}
	if _, err := d.CircuitSignature(faulty, nil); err == nil {
		t.Fatal("empty test vector accepted")
	}
}

func TestToleranceBackgroundDiagnosis(t *testing.T) {
	// With every component inside a 1% manufacturing tolerance AND one
	// true +30% fault, diagnosis should still usually name the fault.
	d, dg := setup(t, []float64{0.5, 2})
	rng := rand.New(rand.NewSource(12))
	tol := fault.Tolerance{Sigma: 0.01}
	correct, total := 0, 0
	for _, comp := range d.Universe().Components {
		for trial := 0; trial < 3; trial++ {
			board, err := tol.Perturb(d.Golden(), rng, comp)
			if err != nil {
				t.Fatal(err)
			}
			if err := board.ScaleValue(comp, 1.3); err != nil {
				t.Fatal(err)
			}
			sig, err := d.CircuitSignature(board, dg.Map().Omegas)
			if err != nil {
				t.Fatal(err)
			}
			res, err := dg.Diagnose(geometry.VecN(sig))
			if err != nil {
				t.Fatal(err)
			}
			total++
			if res.Best().Component == comp {
				correct++
			}
		}
	}
	if acc := float64(correct) / float64(total); acc < 0.7 {
		t.Fatalf("tolerance-background accuracy = %.2f", acc)
	}
}
