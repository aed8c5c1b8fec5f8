package trajectory

import (
	"math"
	"strings"
	"testing"

	"repro/internal/circuits"
	"repro/internal/dictionary"
	"repro/internal/fault"
	"repro/internal/geometry"
)

func paperDict(t testing.TB) *dictionary.Dictionary {
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
	return d
}

func TestBuildBasicShape(t *testing.T) {
	d := paperDict(t)
	m, err := Build(nil, d, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	if m.Dim() != 2 {
		t.Fatalf("dim = %d", m.Dim())
	}
	if len(m.Trajectories) != 7 {
		t.Fatalf("trajectories = %d, want 7", len(m.Trajectories))
	}
	for _, tr := range m.Trajectories {
		// 8 deviations + golden origin = 9 points.
		if len(tr.Points) != 9 || len(tr.Deviations) != 9 {
			t.Fatalf("%s: %d points", tr.Component, len(tr.Points))
		}
		// Deviations ascend and include 0 in the middle.
		for i := 1; i < len(tr.Deviations); i++ {
			if tr.Deviations[i] <= tr.Deviations[i-1] {
				t.Fatalf("%s: deviations not ascending: %v", tr.Component, tr.Deviations)
			}
		}
		if tr.Deviations[4] != 0 {
			t.Fatalf("%s: middle deviation = %g, want 0", tr.Component, tr.Deviations[4])
		}
		// The golden point is the origin.
		if geometry.NormN(tr.Points[4]) != 0 {
			t.Fatalf("%s: origin point = %v", tr.Component, tr.Points[4])
		}
	}
}

func TestBuildValidation(t *testing.T) {
	d := paperDict(t)
	if _, err := Build(nil, d, nil); err == nil {
		t.Fatal("empty test vector accepted")
	}
	if _, err := Build(nil, d, []float64{-1, 2}); err == nil {
		t.Fatal("negative frequency accepted")
	}
	if _, err := Build(nil, d, []float64{math.NaN()}); err == nil {
		t.Fatal("NaN accepted")
	}
}

func TestByComponent(t *testing.T) {
	d := paperDict(t)
	m, err := Build(nil, d, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := m.ByComponent("C2")
	if err != nil {
		t.Fatal(err)
	}
	if tr.Component != "C2" {
		t.Fatalf("component = %s", tr.Component)
	}
	if _, err := m.ByComponent("R99"); err == nil {
		t.Fatal("missing component accepted")
	}
}

func TestTrajectoriesAreSmooth(t *testing.T) {
	// The paper argues responses are smooth and monotonic in the
	// deviation, so consecutive points should not jump wildly: each
	// segment should be shorter than the whole trajectory.
	d := paperDict(t)
	m, err := Build(nil, d, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range m.Trajectories {
		var total float64
		for i := 0; i+1 < len(tr.Points); i++ {
			total += geometry.DistN(tr.Points[i], tr.Points[i+1])
		}
		if total == 0 {
			t.Fatalf("%s: zero-length trajectory — component unobservable", tr.Component)
		}
		for i := 0; i+1 < len(tr.Points); i++ {
			if seg := geometry.DistN(tr.Points[i], tr.Points[i+1]); seg > 0.8*total {
				t.Errorf("%s: segment %d dominates the trajectory (%.3g of %.3g)", tr.Component, i, seg, total)
			}
		}
	}
}

func TestDeviationAt(t *testing.T) {
	tr := &Trajectory{
		Component:  "X",
		Deviations: []float64{-0.2, 0, 0.2},
		Points:     geometry.PolylineN{{0, 0}, {1, 0}, {2, 0}},
	}
	if got := tr.DeviationAt(0, 0); got != -0.2 {
		t.Fatalf("DeviationAt(0,0) = %g", got)
	}
	if got := tr.DeviationAt(0, 1); got != 0 {
		t.Fatalf("DeviationAt(0,1) = %g", got)
	}
	if got := tr.DeviationAt(1, 0.5); math.Abs(got-0.1) > 1e-12 {
		t.Fatalf("DeviationAt(1,0.5) = %g, want 0.1", got)
	}
	// Clamped.
	if got := tr.DeviationAt(99, 2); got != 0.2 {
		t.Fatalf("clamped = %g", got)
	}
	if got := tr.DeviationAt(-5, -1); got != -0.2 {
		t.Fatalf("clamped low = %g", got)
	}
	// Degenerate trajectories.
	if got := (&Trajectory{Deviations: []float64{0.3}}).DeviationAt(0, 0); got != 0.3 {
		t.Fatalf("single-point = %g", got)
	}
	if got := (&Trajectory{}).DeviationAt(0, 0); got != 0 {
		t.Fatalf("empty = %g", got)
	}
}

func TestIntersectionsExcludeOrigin(t *testing.T) {
	// All trajectories pass through the origin; with a reasonable test
	// vector the intersection count must not explode from that
	// structural meeting alone. Compare against a 1-frequency map where
	// everything overlaps on a line.
	d := paperDict(t)
	m2, err := Build(nil, d, []float64{0.5, 2})
	if err != nil {
		t.Fatal(err)
	}
	i2 := m2.Intersections()
	// 7 trajectories → 21 pairs; if origin crossings were counted every
	// pair would contribute at least 1.
	if i2 >= 21 {
		t.Fatalf("I = %d suggests origin crossings are counted", i2)
	}
	m1, err := Build(nil, d, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	if i1 := m1.Intersections(); i1 <= i2 {
		t.Fatalf("1-frequency map I=%d should exceed 2-frequency I=%d", i1, i2)
	}
}

func TestPairIntersections(t *testing.T) {
	d := paperDict(t)
	m, _ := Build(nil, d, []float64{0.5, 2})
	n, err := m.PairIntersections("R1", "C1")
	if err != nil {
		t.Fatal(err)
	}
	if n < 0 {
		t.Fatalf("negative count %d", n)
	}
	if _, err := m.PairIntersections("R1", "zz"); err == nil {
		t.Fatal("missing component accepted")
	}
	if _, err := m.PairIntersections("zz", "R1"); err == nil {
		t.Fatal("missing component accepted")
	}
}

func TestMinSeparationAndExtent(t *testing.T) {
	d := paperDict(t)
	m, _ := Build(nil, d, []float64{0.5, 2})
	sep := m.MinSeparation()
	if sep < 0 || math.IsInf(sep, 1) {
		t.Fatalf("separation = %g", sep)
	}
	ext := m.Extent()
	if ext <= 0 {
		t.Fatalf("extent = %g", ext)
	}
	if sep > ext {
		t.Fatalf("separation %g exceeds extent %g", sep, ext)
	}
}

func TestOverlapScore(t *testing.T) {
	d := paperDict(t)
	m, _ := Build(nil, d, []float64{0.5, 2})
	s, err := m.OverlapScore(1e-4, 10)
	if err != nil {
		t.Fatal(err)
	}
	if s < 0 {
		t.Fatalf("overlap = %g", s)
	}
	m3, _ := Build(nil, d, []float64{0.5, 1, 2})
	if _, err := m3.OverlapScore(1e-4, 10); err == nil {
		t.Fatal("3D overlap accepted")
	}
}

func TestKDimensionalIntersections(t *testing.T) {
	d := paperDict(t)
	m3, err := Build(nil, d, []float64{0.4, 1, 2.5})
	if err != nil {
		t.Fatal(err)
	}
	if m3.Dim() != 3 {
		t.Fatalf("dim = %d", m3.Dim())
	}
	if i := m3.Intersections(); i < 0 {
		t.Fatalf("I = %d", i)
	}
}

func TestDescribe(t *testing.T) {
	d := paperDict(t)
	m, _ := Build(nil, d, []float64{0.5, 2})
	s := m.Describe()
	for _, frag := range []string{"R1", "C3", "[+40%]", "I ="} {
		if !strings.Contains(s, frag) {
			t.Errorf("describe missing %q", frag)
		}
	}
}
