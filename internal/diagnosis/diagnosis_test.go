package diagnosis

import (
	"math"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/geometry"
	"repro/internal/trajectory"
)

func setup(t *testing.T, omegas []float64) (*dictionary.Dictionary, *Diagnoser) {
	t.Helper()
	cut := circuits.NFLowpass7()
	u, err := fault.PaperUniverse(cut.Passives)
	if err != nil {
		t.Fatal(err)
	}
	d, err := dictionary.New(cut.Circuit, cut.Source, cut.Output, u)
	if err != nil {
		t.Fatal(err)
	}
	m, err := trajectory.Build(nil, d, omegas)
	if err != nil {
		t.Fatal(err)
	}
	dg, err := New(m)
	if err != nil {
		t.Fatal(err)
	}
	return d, dg
}

func TestNewRejectsEmpty(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("nil map accepted")
	}
	if _, err := New(&trajectory.Map{}); err == nil {
		t.Fatal("empty map accepted")
	}
}

func TestDiagnoseDimensionMismatch(t *testing.T) {
	_, dg := setup(t, []float64{0.5, 2})
	if _, err := dg.Diagnose(geometry.VecN{1}); err == nil {
		t.Fatal("wrong dimension accepted")
	}
}

func TestDiagnoseGridFaultExact(t *testing.T) {
	// A fault that IS a dictionary point must be diagnosed with its
	// component at (near) zero distance and the right deviation.
	d, dg := setup(t, []float64{0.5, 2})
	f := fault.Fault{Component: "R2", Deviation: 0.3}
	res, err := dg.DiagnoseSet(d, f)
	if err != nil {
		t.Fatal(err)
	}
	best := res.Best()
	if best.Component != "R2" {
		t.Fatalf("diagnosed %s, want R2\n%s", best.Component, res)
	}
	if best.Distance > 1e-9 {
		t.Fatalf("grid fault distance = %g, want ~0", best.Distance)
	}
	if math.Abs(best.Deviation-0.3) > 0.05 {
		t.Fatalf("estimated deviation %+.2f, want +0.30", best.Deviation)
	}
}

func TestDiagnoseOffGridFault(t *testing.T) {
	d, dg := setup(t, []float64{0.5, 2})
	f := fault.Fault{Component: "C1", Deviation: 0.25}
	res, err := dg.DiagnoseSet(d, f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best().Component != "C1" {
		t.Fatalf("diagnosed %s, want C1\n%s", res.Best().Component, res)
	}
	if math.Abs(res.Best().Deviation-0.25) > 0.1 {
		t.Fatalf("estimated deviation %+.2f, want about +0.25", res.Best().Deviation)
	}
}

func TestCandidatesSortedAndComplete(t *testing.T) {
	d, dg := setup(t, []float64{0.5, 2})
	res, err := dg.DiagnoseSet(d, fault.Fault{Component: "R1", Deviation: -0.2})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Candidates) != 7 {
		t.Fatalf("candidates = %d, want 7", len(res.Candidates))
	}
	for i := 1; i < len(res.Candidates); i++ {
		a, b := res.Candidates[i-1], res.Candidates[i]
		if a.Distance > b.Distance*1.02 && !a.Perpendicular {
			t.Fatalf("ranking not sorted sensibly at %d:\n%s", i, res)
		}
	}
}

func TestAmbiguitySet(t *testing.T) {
	d, dg := setup(t, []float64{0.5, 2})
	res, err := dg.DiagnoseSet(d, fault.Fault{Component: "R3", Deviation: 0.35})
	if err != nil {
		t.Fatal(err)
	}
	all := res.AmbiguitySet(math.Inf(1))
	if len(all) != len(res.Candidates) {
		t.Fatalf("infinite ratio returned %d of %d", len(all), len(res.Candidates))
	}
	tight := res.AmbiguitySet(1.0)
	if len(tight) < 1 {
		t.Fatal("ratio 1 must include the best candidate")
	}
	// Degenerate zero-distance case: grid fault.
	resGrid, _ := dg.DiagnoseSet(d, fault.Fault{Component: "R3", Deviation: 0.3})
	if z := resGrid.AmbiguitySet(2); len(z) < 1 {
		t.Fatal("zero-distance ambiguity set empty")
	}
	empty := &Result{}
	if empty.AmbiguitySet(2) != nil {
		t.Fatal("empty result ambiguity set should be nil")
	}
	if empty.Best().Component != "" {
		t.Fatal("empty result Best should be zero")
	}
}

func TestEvaluateAllComponentsHoldOut(t *testing.T) {
	// The headline reproduction: with a good 2-frequency test vector,
	// hold-out faults on all 7 components should mostly diagnose
	// correctly.
	d, dg := setup(t, []float64{0.5, 2})
	trials := HoldOutTrials(d.Universe(), DefaultHoldOutDeviations())
	if len(trials) != 7*6 {
		t.Fatalf("trials = %d, want 42", len(trials))
	}
	ev, err := dg.Evaluate(nil, d, fault.Sets(trials))
	if err != nil {
		t.Fatal(err)
	}
	if ev.Total != 42 {
		t.Fatalf("total = %d", ev.Total)
	}
	if ev.Accuracy() < 0.7 {
		t.Fatalf("hold-out accuracy = %.2f, want >= 0.7\n%s", ev.Accuracy(), ev.ConfusionTable())
	}
	if ev.TopTwoAccuracy() < ev.Accuracy() {
		t.Fatal("top-two accuracy below top-one")
	}
	if ev.MeanDevError > 0.15 {
		t.Fatalf("mean deviation error = %.3f", ev.MeanDevError)
	}
	for comp, cs := range ev.PerComponent {
		if cs.Total != 6 {
			t.Fatalf("%s: %d trials", comp, cs.Total)
		}
	}
}

func TestEvaluateEmptyTrials(t *testing.T) {
	_, dg := setup(t, []float64{0.5, 2})
	d, _ := setup(t, []float64{0.5, 2})
	_ = d
	dict, _ := setup(t, []float64{0.5, 2})
	_ = dict
	if _, err := dg.Evaluate(nil, nil, nil); err == nil {
		t.Fatal("empty trials accepted")
	}
}

func TestConfusionTableRenders(t *testing.T) {
	d, dg := setup(t, []float64{0.5, 2})
	ev, err := dg.Evaluate(nil, d, fault.Sets(HoldOutTrials(d.Universe(), []float64{0.25, -0.25})))
	if err != nil {
		t.Fatal(err)
	}
	table := ev.ConfusionTable()
	for _, comp := range []string{"R1", "C3"} {
		if !strings.Contains(table, comp) {
			t.Errorf("confusion table missing %s:\n%s", comp, table)
		}
	}
}

func TestResultString(t *testing.T) {
	d, dg := setup(t, []float64{0.5, 2})
	res, err := dg.DiagnoseSet(d, fault.Fault{Component: "C2", Deviation: 0.2})
	if err != nil {
		t.Fatal(err)
	}
	s := res.String()
	if !strings.Contains(s, "C2") || !strings.Contains(s, "1.") {
		t.Fatalf("render missing pieces:\n%s", s)
	}
}

func TestHoldOutTrialsSkipsZero(t *testing.T) {
	u, _ := fault.PaperUniverse([]string{"R1"})
	trials := HoldOutTrials(u, []float64{0, 0.15})
	if len(trials) != 1 {
		t.Fatalf("trials = %d, want 1 (zero skipped)", len(trials))
	}
}

func TestMapAccessor(t *testing.T) {
	_, dg := setup(t, []float64{0.5, 2})
	if dg.Map() == nil || dg.Map().Dim() != 2 {
		t.Fatal("Map accessor broken")
	}
}

func TestDiagnose3D(t *testing.T) {
	d, dg := setup(t, []float64{0.4, 1, 2.5})
	res, err := dg.DiagnoseSet(d, fault.Fault{Component: "R4", Deviation: -0.25})
	if err != nil {
		t.Fatal(err)
	}
	if res.Best().Component != "R4" {
		t.Fatalf("3D diagnosis = %s, want R4\n%s", res.Best().Component, res)
	}
}
