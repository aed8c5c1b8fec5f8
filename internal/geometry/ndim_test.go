package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestVecNBasics(t *testing.T) {
	a := VecN{1, 2, 2}
	b := VecN{0, 0, 0}
	if got := DistN(a, b); got != 3 {
		t.Fatalf("DistN = %v, want 3", got)
	}
	if got := NormN(a); got != 3 {
		t.Fatalf("NormN = %v, want 3", got)
	}
	if got := DotN(a, VecN{1, 1, 1}); got != 5 {
		t.Fatalf("DotN = %v, want 5", got)
	}
}

func TestVecNDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("dimension mismatch did not panic")
		}
	}()
	DistN(VecN{1}, VecN{1, 2})
}

func TestProjectN(t *testing.T) {
	a, b := VecN{0, 0, 0}, VecN{10, 0, 0}
	pr := ProjectN(VecN{3, 4, 0}, a, b)
	if !pr.Interior || pr.Dist != 4 || math.Abs(pr.T-0.3) > 1e-12 {
		t.Fatalf("ProjectN = %+v", pr)
	}
	// Degenerate.
	pr = ProjectN(VecN{1, 0, 0}, a, a)
	if pr.Interior || pr.Dist != 1 {
		t.Fatalf("degenerate ProjectN = %+v", pr)
	}
}

func TestPolylineN(t *testing.T) {
	pl := PolylineN{{0, 0, 0}, {3, 0, 0}, {3, 4, 0}}
	if pl.Dim() != 3 {
		t.Fatalf("Dim = %d", pl.Dim())
	}
	i, pr, ok := pl.NearestSegmentN(VecN{1.5, 1, 0})
	if !ok || i != 0 || pr.Dist != 1 {
		t.Fatalf("NearestSegmentN = %d %+v", i, pr)
	}
	if d := (PolylineN{}).DistToN(VecN{}); !math.IsInf(d, 1) {
		t.Fatalf("empty DistToN = %v", d)
	}
}

func TestProject2DAndProjectedIntersections(t *testing.T) {
	a := PolylineN{{-1, -1, 0}, {1, 1, 0}}
	xy := a.Project2D(0, 1)
	if xy[0] != (Point{-1, -1}) {
		t.Fatalf("Project2D = %v", xy)
	}
}

// Property: ProjectN in R^2 agrees with the planar Project.
func TestQuickProjectNMatches2D(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		a := Point{r.NormFloat64(), r.NormFloat64()}
		b := Point{r.NormFloat64(), r.NormFloat64()}
		p := Point{r.NormFloat64(), r.NormFloat64()}
		pr2 := Project(p, Segment{a, b})
		prN := ProjectN(VecN{p.X, p.Y}, VecN{a.X, a.Y}, VecN{b.X, b.Y})
		return math.Abs(pr2.Dist-prN.Dist) < 1e-10 && pr2.Interior == prN.Interior
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
