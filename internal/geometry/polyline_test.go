package geometry

import (
	"math"
	"testing"
)

func TestPolylineSegmentsLength(t *testing.T) {
	pl := Polyline{{0, 0}, {3, 0}, {3, 4}}
	segs := pl.Segments()
	if len(segs) != 2 {
		t.Fatalf("segments = %d, want 2", len(segs))
	}
	if (Polyline{{1, 1}}).Segments() != nil {
		t.Fatal("single-point polyline should have no segments")
	}
}

func TestNearestSegment(t *testing.T) {
	pl := Polyline{{0, 0}, {10, 0}, {10, 10}}
	i, pr, ok := pl.NearestSegment(Point{5, 1})
	if !ok || i != 0 {
		t.Fatalf("nearest = %d ok=%v, want 0", i, ok)
	}
	if pr.Dist != 1 {
		t.Fatalf("dist = %v, want 1", pr.Dist)
	}
	i, pr, ok = pl.NearestSegment(Point{12, 5})
	if !ok || i != 1 || pr.Dist != 2 {
		t.Fatalf("nearest = %d dist=%v, want 1, 2", i, pr.Dist)
	}
	if _, _, ok := (Polyline{{0, 0}}).NearestSegment(Point{1, 1}); ok {
		t.Fatal("degenerate polyline should report not-ok")
	}
	if d := (Polyline{}).DistTo(Point{0, 0}); !math.IsInf(d, 1) {
		t.Fatalf("empty DistTo = %v, want +Inf", d)
	}
}

func TestSharedOriginIntersections(t *testing.T) {
	// Two trajectories through the origin: an X shape. Their only meeting
	// is at the origin, which must be excluded.
	a := Polyline{{-1, -1}, {0, 0}, {1, 1}}
	b := Polyline{{-1, 1}, {0, 0}, {1, -1}}
	if got := SharedOriginIntersections(a, b, Point{0, 0}, 1e-9); got != 0 {
		t.Fatalf("origin-only crossing counted: %d", got)
	}
	// Add a genuine off-origin crossing.
	c := Polyline{{-1, 0.5}, {1, 0.5}}
	d := Polyline{{0, 0}, {0.5, 1}}
	if got := SharedOriginIntersections(c, d, Point{0, 0}, 1e-9); got != 1 {
		t.Fatalf("off-origin crossing = %d, want 1", got)
	}
}

func TestOverlapLength(t *testing.T) {
	a := Polyline{{0, 0}, {10, 0}}
	b := Polyline{{0, 0.001}, {10, 0.001}}
	got := OverlapLength(a, b, 0.01, 50)
	if math.Abs(got-10) > 0.5 {
		t.Fatalf("overlap = %v, want about 10", got)
	}
	far := Polyline{{0, 5}, {10, 5}}
	if got := OverlapLength(a, far, 0.01, 50); got != 0 {
		t.Fatalf("far overlap = %v, want 0", got)
	}
}
