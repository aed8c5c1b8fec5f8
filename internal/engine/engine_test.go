package engine

import (
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/analysis"
	"repro/internal/circuit"
	"repro/internal/circuits"
	"repro/internal/fault"
	"repro/internal/numeric"
)

// relErr returns |a-b| / max(|a|, |b|, floor).
func relErr(a, b float64) float64 {
	return relErrFloor(a, b, 1e-30)
}

// relErrFloor is relErr with an absolute noise floor: responses far below
// the circuit's overall response scale (e.g. at a notch null) are
// numerical noise in both paths and compare as equal.
func relErrFloor(a, b, floor float64) float64 {
	scale := math.Max(math.Max(math.Abs(a), math.Abs(b)), floor)
	return math.Abs(a-b) / scale
}

// acResponses is the per-point reference the engine is pinned against:
// |H(jω)| at each ω of a clone of cut's circuit with set applied,
// assembled and factored afresh by analysis.AC — code that shares
// nothing with the compiled template.
func acResponses(t testing.TB, cut circuits.CUT, set fault.Set, omegas []float64) []float64 {
	t.Helper()
	c := cut.Circuit
	if parts := set.Parts(); len(parts) > 0 {
		var err error
		if c, err = fault.Multi(parts).Apply(cut.Circuit); err != nil {
			t.Fatal(err)
		}
	}
	ac, err := analysis.NewAC(c)
	if err != nil {
		t.Fatal(err)
	}
	row := make([]float64, len(omegas))
	for j, w := range omegas {
		h, err := ac.Transfer(cut.Source, cut.Output, w)
		if err != nil {
			t.Fatalf("%s at ω=%g: %v", set.ID(), w, err)
		}
		row[j] = cmplx.Abs(h)
	}
	return row
}

// TestTemplateMatchesStampAt verifies the compiled stamp program — the
// dense SoA stamp the column solver factors — against the elements' own
// Stamp methods for every benchmark CUT across a frequency spread: the
// structural correctness of the whole engine. The SoA stamp is read
// through the numeric API only: factored, it must carry the matrix
// StampAt builds to the identity, A_soa⁻¹·A = I, which pins every entry.
func TestTemplateMatchesStampAt(t *testing.T) {
	for _, cut := range circuits.All() {
		tmpl, err := Compile(cut.Circuit)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		n := tmpl.Size()
		soa := numeric.NewSoAMatrix(n, n)
		blk := numeric.NewBlock(n, n)
		var lu numeric.SoALU
		for _, w := range []float64{0, 1e-3, 0.3, 1, 7.7, 1e3} {
			s := complex(0, w)
			want, wantB, err := tmpl.System().StampAt(s)
			if err != nil {
				t.Fatal(err)
			}
			tmpl.stampGoldenSoA(soa, s)
			if err := numeric.FactorSoAReuse(&lu, soa); err != nil {
				t.Fatalf("%s: template A at ω=%g: %v", cut.Circuit.Name(), w, err)
			}
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					blk.Set(i, j, want.At(i, j))
				}
			}
			if err := lu.SolveBlock(blk); err != nil {
				t.Fatal(err)
			}
			re, im := blk.Planes()
			tol := 1e-12 * (1 + want.MaxAbs())
			for i := 0; i < n; i++ {
				for j := 0; j < n; j++ {
					v := complex(re[i*n+j], im[i*n+j])
					if i == j {
						v--
					}
					if cmplx.Abs(v) > tol {
						t.Fatalf("%s: template A mismatch at ω=%g: (A_soa⁻¹·A)[%d][%d] off the identity by %g", cut.Circuit.Name(), w, i, j, cmplx.Abs(v))
					}
				}
			}
			for i := range wantB {
				if cmplx.Abs(tmpl.RHS()[i]-wantB[i]) > 1e-12 {
					t.Fatalf("%s: template b mismatch at ω=%g", cut.Circuit.Name(), w)
				}
			}
		}
	}
}

// TestTemplateSelfCheckRejectsCorruption pins the strength of Compile's
// self-check. Every built-in and scaling CUT's pristine template passes.
// On every built-in CUT, one compiled static entry, an extra static entry
// outside the element pattern, one slot's u weight and one RHS entry are
// corrupted in turn, each so that A or b entries move by a multiple of
// the check's DC tolerance 1e-12·(1 + max|A(0)|):
// at 10× the check must report the disagreement, at 0.1× it must pass
// (the second probe's tolerance is never smaller — its entries add only
// imaginary parts to the DC ones).
func TestTemplateSelfCheckRejectsCorruption(t *testing.T) {
	for _, cut := range append(circuits.All(), circuits.Scaling()...) {
		tm, err := Compile(cut.Circuit)
		if err != nil {
			t.Fatalf("%s: pristine template rejected: %v", cut.Circuit.Name(), err)
		}
		if err := tm.verify(); err != nil {
			t.Fatalf("%s: pristine template rejected: %v", cut.Circuit.Name(), err)
		}
	}
	for _, cut := range circuits.All() {
		name := cut.Circuit.Name()
		tm, err := Compile(cut.Circuit)
		if err != nil {
			t.Fatal(err)
		}
		a0, _, err := tm.System().StampAt(0)
		if err != nil {
			t.Fatal(err)
		}
		tol := 1e-12 * (1 + a0.MaxAbs())
		res := -1 // first conductance slot: its coefficient 1/R is ω-independent
		for i := range tm.slots {
			if tm.slots[i].kind == coeffConductance {
				res = i
				break
			}
		}
		rhs := -1
		for i, v := range tm.b {
			if v != 0 {
				rhs = i
				break
			}
		}
		a1, _, err := tm.System().StampAt(complex(0, 2.7182818))
		if err != nil {
			t.Fatal(err)
		}
		zi, zj := -1, -1 // an entry outside the pattern at both probes
		for i := 0; i < tm.n && zi < 0; i++ {
			for j := 0; j < tm.n; j++ {
				if a0.At(i, j) == 0 && a1.At(i, j) == 0 {
					zi, zj = i, j
					break
				}
			}
		}
		if len(tm.static) == 0 || res < 0 || rhs < 0 || zi < 0 {
			t.Fatalf("%s: no static entry, resistor slot, source or structural zero to corrupt", name)
		}
		// Each corruption moves its entries by x·tol and returns the undo.
		corruptions := []struct {
			what  string
			apply func(x float64) func()
		}{
			{"static entry", func(x float64) func() {
				old := tm.static[0].v
				tm.static[0].v += complex(x*tol, 0)
				return func() { tm.static[0].v = old }
			}},
			{"entry outside the pattern", func(x float64) func() {
				old := tm.static
				tm.static = append(old[:len(old):len(old)], staticEntry{zi, zj, complex(x*tol, 0)})
				return func() { tm.static = old }
			}},
			{"slot u weight", func(x float64) func() {
				sl := &tm.slots[res]
				old := sl.u
				// u and v may share storage; corrupt a copy of u only.
				sl.u = append([]sparseEntry(nil), old...)
				sl.u[0].w += complex(x*tol*sl.value, 0)
				return func() { sl.u = old }
			}},
			{"rhs entry", func(x float64) func() {
				old := tm.b[rhs]
				tm.b[rhs] += complex(x*tol, 0)
				return func() { tm.b[rhs] = old }
			}},
		}
		for _, c := range corruptions {
			undo := c.apply(10)
			err := tm.verify()
			undo()
			if err == nil || !strings.Contains(err.Error(), "disagrees with element stamps") {
				t.Errorf("%s: %s off by 10× tolerance: check returned %v", name, c.what, err)
			}
			undo = c.apply(0.1)
			err = tm.verify()
			undo()
			if err != nil {
				t.Errorf("%s: %s off by 0.1× tolerance rejected: %v", name, c.what, err)
			}
		}
		if err := tm.verify(); err != nil {
			t.Fatalf("%s: restored template rejected: %v", name, err)
		}
	}
}

// TestResponseMatchesAnalysis compares the engine's per-point path — a
// one-item plan solved at one frequency, as a dictionary miss solves it
// — against the classic clone+assemble+solve path over faults and
// frequencies for every benchmark CUT, to 1e-9 relative. At an exact
// transmission zero (twin-t-notch at ω0) the reference is rounding
// noise, a few ulps of the peak response, and so is the engine's
// answer: a point whose reference is below 1e-15 × peak only has to
// stay within 1e-15 × peak of it.
func TestResponseMatchesAnalysis(t *testing.T) {
	for _, cut := range circuits.All() {
		eng, err := New(cut.Circuit, cut.Source, cut.Output)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		u, err := fault.PaperUniverse(cut.Passives)
		if err != nil {
			t.Fatal(err)
		}
		omegas := numeric.Logspace(cut.Omega0/50, cut.Omega0*50, 7)
		faults := append([]fault.Fault{{}}, u.Faults()...)
		var peak float64
		for _, g := range acResponses(t, cut, fault.Fault{}, omegas) {
			peak = math.Max(peak, g)
		}
		rounding := 1e-15 * peak
		for _, f := range faults {
			want := acResponses(t, cut, f, omegas)
			for j, w := range omegas {
				b, err := eng.BatchResponsesSets(nil, []fault.Set{f}, []float64{w}, 1)
				if err != nil {
					t.Fatal(err)
				}
				got := b.Mags[0][0]
				if want[j] <= rounding {
					if math.Abs(got-want[j]) > rounding {
						t.Fatalf("%s: fault %s ω=%g: engine %.15g vs analysis %.15g at rounding level %g",
							cut.Circuit.Name(), f.ID(), w, got, want[j], rounding)
					}
					continue
				}
				if re := relErr(got, want[j]); re > 1e-9 {
					t.Fatalf("%s: fault %s ω=%g: engine %.15g vs analysis %.15g (rel %g)",
						cut.Circuit.Name(), f.ID(), w, got, want[j], re)
				}
			}
		}
	}
}

// TestBatchAgreesWithResponse is the acceptance-criterion check: the
// Sherman–Morrison batch path agrees with the per-point reference
// (analysis.AC of the faulted clone) to within 1e-9 relative error on
// the full paper universe × a 32-point log sweep.
func TestBatchAgreesWithResponse(t *testing.T) {
	cut := circuits.NFLowpass7()
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	faults := u.Faults()
	omegas := numeric.Logspace(0.01, 100, 32)
	batch, err := eng.BatchResponses(nil, faults, omegas, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(batch.Mags) != len(faults) || len(batch.Golden) != len(omegas) {
		t.Fatalf("batch shape %dx%d, want %dx%d", len(batch.Mags), len(batch.Golden), len(faults), len(omegas))
	}
	golden := acResponses(t, cut, fault.Fault{}, omegas)
	for j, w := range omegas {
		if re := relErr(batch.Golden[j], golden[j]); re > 1e-9 {
			t.Fatalf("golden ω=%g: batch %.15g vs analysis %.15g (rel %g)", w, batch.Golden[j], golden[j], re)
		}
	}
	for i, f := range faults {
		exact := acResponses(t, cut, f, omegas)
		for j, w := range omegas {
			if re := relErr(batch.Mags[i][j], exact[j]); re > 1e-9 {
				t.Fatalf("fault %s ω=%g: batch %.15g vs analysis %.15g (rel %g)",
					f.ID(), w, batch.Mags[i][j], exact[j], re)
			}
		}
	}
}

// TestBatchAllCUTs runs a smaller agreement sweep against analysis.AC
// over every benchmark circuit, exercising inductor and notch topologies
// where rank-1 updates are most likely to go ill-conditioned.
func TestBatchAllCUTs(t *testing.T) {
	for _, cut := range circuits.All() {
		eng, err := New(cut.Circuit, cut.Source, cut.Output)
		if err != nil {
			t.Fatalf("%s: %v", cut.Circuit.Name(), err)
		}
		u, err := fault.PaperUniverse(cut.Passives)
		if err != nil {
			t.Fatal(err)
		}
		faults := u.Faults()
		omegas := numeric.Logspace(cut.Omega0/100, cut.Omega0*100, 9)
		batch, err := eng.BatchResponses(nil, faults, omegas, 2)
		if err != nil {
			t.Fatal(err)
		}
		// Noise floor: responses far below the circuit's peak golden
		// response (notch nulls) still must agree to 1e-12·peak absolute,
		// but are not held to 1e-9 relative on their noise digits.
		var peak float64
		for _, g := range batch.Golden {
			peak = math.Max(peak, g)
		}
		floor := 1e-3 * peak
		for i, f := range faults {
			exact := acResponses(t, cut, f, omegas)
			for j, w := range omegas {
				if re := relErrFloor(batch.Mags[i][j], exact[j], floor); re > 1e-9 {
					t.Fatalf("%s: fault %s ω=%g: batch %.15g vs analysis %.15g (rel %g)",
						cut.Circuit.Name(), f.ID(), w, batch.Mags[i][j], exact[j], re)
				}
			}
		}
	}
}

// TestEngineErrors covers the validation paths.
func TestEngineErrors(t *testing.T) {
	cut := circuits.NFLowpass7()
	if _, err := New(cut.Circuit, "nosuch", cut.Output); err == nil {
		t.Fatal("unknown source accepted")
	}
	if _, err := New(cut.Circuit, "R1", cut.Output); err == nil {
		t.Fatal("non-source element accepted as source")
	}
	if _, err := New(cut.Circuit, cut.Source, "nosuchnode"); err == nil {
		t.Fatal("unknown output node accepted")
	}
	eng, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	var p Plan
	if err := Resolve(eng, []fault.Fault{{Component: "R99", Deviation: 0.1}}, &p); err == nil {
		t.Fatal("unknown component accepted")
	}
	if err := Resolve(eng, []fault.Fault{{Component: "U1", Deviation: 0.1}}, &p); err == nil {
		t.Fatal("non-valued component accepted")
	}
	if err := Resolve(eng, []fault.Fault{{Component: "R1", Deviation: -1}}, &p); err == nil {
		t.Fatal("-100% deviation accepted")
	}
	if err := eng.SolveInto(nil, testPlan(t, eng, []fault.Fault{{}}), []float64{-1}, 1, nil, &Batch{}); err == nil {
		t.Fatal("negative frequency accepted")
	}
	if _, err := eng.BatchResponses(nil, []fault.Fault{{}}, nil, 1); err == nil {
		t.Fatal("empty omega list accepted")
	}
	if _, err := eng.BatchResponses(nil, []fault.Fault{{}}, []float64{1, -2}, 1); err == nil {
		t.Fatal("negative frequency in batch accepted")
	}
	if _, err := eng.BatchResponses(nil, []fault.Fault{{Component: "R99", Deviation: 0.1}}, []float64{1}, 1); err == nil {
		t.Fatal("unknown batch component accepted")
	}
	// A plan is solved only by the engine that resolved it.
	if err := eng.SolveInto(nil, &Plan{}, []float64{1}, 1, nil, &Batch{}); err == nil {
		t.Fatal("unresolved plan accepted")
	}
	other, err := New(cut.Circuit, cut.Source, cut.Output)
	if err != nil {
		t.Fatal(err)
	}
	if err := other.SolveInto(nil, testPlan(t, eng, []fault.Fault{{}}), []float64{1}, 1, nil, &Batch{}); err == nil {
		t.Fatal("plan of another engine accepted")
	}
	// A circuit with a zero-amplitude source is rejected at New.
	c := circuit.New("zero-amp")
	c.MustAdd(circuit.NewVSource("V1", "a", "0", 0))
	c.MustAdd(circuit.NewResistor("R1", "a", "0", 1))
	if _, err := New(c, "V1", "a"); err == nil {
		t.Fatal("zero-amplitude source accepted")
	}
}

// TestSlotAccessors covers HasSlot.
func TestSlotAccessors(t *testing.T) {
	cut := circuits.NFLowpass7()
	tmpl, err := Compile(cut.Circuit)
	if err != nil {
		t.Fatal(err)
	}
	if !tmpl.HasSlot("R1") || tmpl.HasSlot("U1") || tmpl.HasSlot("Vin") {
		t.Fatal("slot membership wrong")
	}
}
