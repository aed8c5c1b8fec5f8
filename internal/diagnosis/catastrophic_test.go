package diagnosis

import (
	"strings"
	"testing"

	"repro/internal/fault"
	"repro/internal/geometry"
)

func TestAllCatastrophic(t *testing.T) {
	u, err := fault.PaperUniverse([]string{"R1", "C1"})
	if err != nil {
		t.Fatal(err)
	}
	cats := AllCatastrophic(u)
	if len(cats) != 4 {
		t.Fatalf("cats = %d, want 4", len(cats))
	}
	ids := make(map[string]bool)
	for _, c := range cats {
		ids[c.ID()] = true
	}
	for _, want := range []string{"R1#open", "R1#short", "C1#open", "C1#short"} {
		if !ids[want] {
			t.Errorf("missing %s", want)
		}
	}
}

func TestCatastrophicPointsAndDiagnosis(t *testing.T) {
	d, dg := setup(t, []float64{0.5, 2})
	cats, skipped, err := CatastrophicPoints(d, AllCatastrophic(d.Universe()), dg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	if len(cats)+len(skipped) != 14 {
		t.Fatalf("points %d + skipped %d != 14", len(cats), len(skipped))
	}
	if len(cats) < 10 {
		t.Fatalf("too many unsolvable catastrophic circuits: skipped %v", skipped)
	}

	// An actual open R2 must be identified as R2#open, not as some
	// parametric fault.
	hard := fault.Catastrophic{Component: "R2", Open: true}
	circ, err := hard.Apply(d.Golden())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := d.CircuitSignature(circ, dg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dg.DiagnoseWithCatastrophic(geometry.VecN(sig), cats)
	if err != nil {
		t.Fatal(err)
	}
	if res.Best().Component != "R2#open" {
		t.Fatalf("diagnosed %s, want R2#open\n%s", res.Best().Component, res)
	}
	if res.Best().Deviation != 1 {
		t.Fatalf("open marker = %g, want +1", res.Best().Deviation)
	}

	// A parametric fault must still win over the catastrophic points.
	pres, err := dg.DiagnoseSet(d, fault.Fault{Component: "C1", Deviation: 0.25})
	if err != nil {
		t.Fatal(err)
	}
	psig, err := d.Signature(fault.Fault{Component: "C1", Deviation: 0.25}, dg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	extended, err := dg.DiagnoseWithCatastrophic(geometry.VecN(psig), cats)
	if err != nil {
		t.Fatal(err)
	}
	if extended.Best().Component != pres.Best().Component {
		t.Fatalf("extended ranking flipped a parametric diagnosis: %s vs %s",
			extended.Best().Component, pres.Best().Component)
	}
	// Candidate list grew by the catastrophic entries.
	if len(extended.Candidates) != len(pres.Candidates)+len(cats) {
		t.Fatalf("candidates = %d, want %d", len(extended.Candidates), len(pres.Candidates)+len(cats))
	}
	// Ranking is sorted.
	for i := 1; i < len(extended.Candidates); i++ {
		if extended.Candidates[i].Distance < extended.Candidates[i-1].Distance-1e-12 {
			t.Fatal("extended candidates not sorted")
		}
	}
}

func TestCatastrophicShortMarker(t *testing.T) {
	d, dg := setup(t, []float64{0.5, 2})
	hard := fault.Catastrophic{Component: "C2", Open: false}
	cats, _, err := CatastrophicPoints(d, []fault.Catastrophic{hard}, dg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	if len(cats) != 1 {
		t.Fatalf("cats = %d", len(cats))
	}
	circ, err := hard.Apply(d.Golden())
	if err != nil {
		t.Fatal(err)
	}
	sig, err := d.CircuitSignature(circ, dg.Map().Omegas)
	if err != nil {
		t.Fatal(err)
	}
	res, err := dg.DiagnoseWithCatastrophic(geometry.VecN(sig), cats)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(res.Best().Component, "#short") || res.Best().Deviation != -1 {
		t.Fatalf("short not marked: %+v", res.Best())
	}
}

func TestCatastrophicValidation(t *testing.T) {
	d, dg := setup(t, []float64{0.5, 2})
	if _, _, err := CatastrophicPoints(d, nil, nil); err == nil {
		t.Fatal("empty test vector accepted")
	}
	bad := []CatastrophicPoint{{ID: "X#open", Point: geometry.VecN{1}}}
	if _, err := dg.DiagnoseWithCatastrophic(geometry.VecN{0, 0}, bad); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}
