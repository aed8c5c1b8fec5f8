package geometry

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestPointArithmetic(t *testing.T) {
	p := Point{1, 2}
	q := Point{3, -1}
	if got := p.Add(q); got != (Point{4, 1}) {
		t.Fatalf("Add = %v", got)
	}
	if got := p.Sub(q); got != (Point{-2, 3}) {
		t.Fatalf("Sub = %v", got)
	}
	if got := p.Scale(2); got != (Point{2, 4}) {
		t.Fatalf("Scale = %v", got)
	}
	if got := p.Dot(q); got != 1 {
		t.Fatalf("Dot = %v, want 1", got)
	}
	if got := p.Cross(q); got != -7 {
		t.Fatalf("Cross = %v, want -7", got)
	}
	if got := (Point{3, 4}).Norm(); got != 5 {
		t.Fatalf("Norm = %v, want 5", got)
	}
	if got := p.Dist(Point{4, 6}); got != 5 {
		t.Fatalf("Dist = %v, want 5", got)
	}
}

func TestOrientation(t *testing.T) {
	a, b := Point{0, 0}, Point{1, 0}
	if Orientation(a, b, Point{0.5, 1}) != 1 {
		t.Fatal("left turn not CCW")
	}
	if Orientation(a, b, Point{0.5, -1}) != -1 {
		t.Fatal("right turn not CW")
	}
	if Orientation(a, b, Point{2, 0}) != 0 {
		t.Fatal("collinear not detected")
	}
}

func TestIntersectProperCrossing(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 2}}
	u := Segment{Point{0, 2}, Point{2, 0}}
	k, p := Intersect(s, u)
	if k != ProperCrossing {
		t.Fatalf("kind = %v, want proper", k)
	}
	if p.Dist(Point{1, 1}) > 1e-12 {
		t.Fatalf("point = %v, want (1,1)", p)
	}
}

func TestIntersectNone(t *testing.T) {
	s := Segment{Point{0, 0}, Point{1, 0}}
	u := Segment{Point{0, 1}, Point{1, 1}}
	if k, _ := Intersect(s, u); k != NoIntersection {
		t.Fatalf("kind = %v, want none", k)
	}
	// Segments whose infinite lines cross but segments don't.
	v := Segment{Point{5, -1}, Point{5, 1}}
	if k, _ := Intersect(s, v); k != NoIntersection {
		t.Fatalf("kind = %v, want none", k)
	}
}

func TestIntersectEndpointTouch(t *testing.T) {
	s := Segment{Point{0, 0}, Point{1, 1}}
	u := Segment{Point{1, 1}, Point{2, 0}}
	k, p := Intersect(s, u)
	if k != EndpointTouch {
		t.Fatalf("kind = %v, want touch", k)
	}
	if p.Dist(Point{1, 1}) > 1e-12 {
		t.Fatalf("point = %v, want (1,1)", p)
	}
	// T-junction: endpoint of u in the interior of s.
	w := Segment{Point{0.5, 0.5}, Point{0.5, 2}}
	if k, _ := Intersect(s, w); k != EndpointTouch {
		t.Fatalf("T-junction kind = %v, want touch", k)
	}
}

func TestIntersectCollinear(t *testing.T) {
	s := Segment{Point{0, 0}, Point{2, 0}}
	u := Segment{Point{1, 0}, Point{3, 0}}
	if k, _ := Intersect(s, u); k != CollinearOverlap {
		t.Fatalf("kind = %v, want overlap", k)
	}
	// Collinear but disjoint.
	v := Segment{Point{3, 0}, Point{4, 0}}
	if k, _ := Intersect(s, v); k != NoIntersection {
		t.Fatalf("kind = %v, want none", k)
	}
	// Collinear touching at a single point.
	w := Segment{Point{2, 0}, Point{4, 0}}
	if k, p := Intersect(s, w); k != EndpointTouch || p.Dist(Point{2, 0}) > 1e-12 {
		t.Fatalf("kind = %v at %v, want touch at (2,0)", k, p)
	}
}

func TestProject(t *testing.T) {
	s := Segment{Point{0, 0}, Point{10, 0}}
	pr := Project(Point{3, 4}, s)
	if !pr.Interior {
		t.Fatal("interior foot not reported")
	}
	if math.Abs(pr.T-0.3) > 1e-12 || pr.Dist != 4 || pr.Foot.Dist(Point{3, 0}) > 1e-12 {
		t.Fatalf("projection = %+v", pr)
	}
	// Beyond the B end: clamped foot, not interior.
	pr = Project(Point{15, 0}, s)
	if pr.Interior || pr.T <= 1 || pr.Foot.Dist(Point{10, 0}) > 1e-12 || pr.Dist != 5 {
		t.Fatalf("beyond-end projection = %+v", pr)
	}
	// Degenerate segment.
	pr = Project(Point{1, 1}, Segment{Point{0, 0}, Point{0, 0}})
	if pr.Interior || math.Abs(pr.Dist-math.Sqrt2) > 1e-12 {
		t.Fatalf("degenerate projection = %+v", pr)
	}
}

func TestSegmentHelpers(t *testing.T) {
	s := Segment{Point{0, 0}, Point{4, 0}}
	if s.Length() != 4 {
		t.Fatalf("Length = %v", s.Length())
	}
}

func TestBoundingBox(t *testing.T) {
	s := Segment{Point{2, -1}, Point{0, 3}}
	b := BoxOf(s)
	if b.Min != (Point{0, -1}) || b.Max != (Point{2, 3}) {
		t.Fatalf("box = %+v", b)
	}
	if !b.Contains(Point{1, 0}) || b.Contains(Point{5, 5}) {
		t.Fatal("Contains wrong")
	}
	o := BoundingBox{Point{3, 3}, Point{4, 4}}
	if b.Overlaps(o) {
		t.Fatal("disjoint boxes reported overlapping")
	}
	if !b.Expand(1.5).Overlaps(o) {
		t.Fatal("expanded box should overlap")
	}
	u := b.Union(o)
	if u.Min != (Point{0, -1}) || u.Max != (Point{4, 4}) {
		t.Fatalf("union = %+v", u)
	}
}

// Property: Intersect is symmetric in its arguments (same kind).
func TestQuickIntersectSymmetric(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randSegment(r)
		u := randSegment(r)
		k1, _ := Intersect(s, u)
		k2, _ := Intersect(u, s)
		return k1 == k2
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: the projection foot is never farther than either endpoint.
func TestQuickProjectionOptimal(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randSegment(r)
		p := Point{r.NormFloat64() * 3, r.NormFloat64() * 3}
		pr := Project(p, s)
		return pr.Dist <= p.Dist(s.A)+1e-12 && pr.Dist <= p.Dist(s.B)+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: if two segments properly cross, the returned point lies on
// both (distance ~0 to each).
func TestQuickCrossingPointOnBoth(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := randSegment(r)
		u := randSegment(r)
		k, p := Intersect(s, u)
		if k != ProperCrossing {
			return true
		}
		return Project(p, s).Dist < 1e-9 && Project(p, u).Dist < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func randSegment(r *rand.Rand) Segment {
	return Segment{
		Point{r.NormFloat64(), r.NormFloat64()},
		Point{r.NormFloat64(), r.NormFloat64()},
	}
}
