// Package geometry implements the 2D (and small-k N-dimensional)
// computational geometry the fault-trajectory method rests on: segment
// intersection tests for the GA fitness function (the paper's "number of
// trajectory intersections" I), and perpendicular point-to-segment
// projection for the diagnosis step (dropping perpendiculars from an
// unknown-fault point onto known trajectories).
package geometry

import (
	"fmt"
	"math"
)

// Eps is the default tolerance used by the orientation and intersection
// predicates. Trajectory coordinates are magnitude differences of filter
// responses, typically O(1) after normalization, so an absolute epsilon is
// appropriate.
const Eps = 1e-12

// Point is a point in the Cartesian trajectory plane.
type Point struct {
	X, Y float64
}

// Add returns p + q as vectors.
func (p Point) Add(q Point) Point { return Point{p.X + q.X, p.Y + q.Y} }

// Sub returns p - q as vectors.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Scale returns k·p.
func (p Point) Scale(k float64) Point { return Point{k * p.X, k * p.Y} }

// Dot returns the dot product p·q.
func (p Point) Dot(q Point) float64 { return p.X*q.X + p.Y*q.Y }

// Cross returns the z component of the cross product p×q.
func (p Point) Cross(q Point) float64 { return p.X*q.Y - p.Y*q.X }

// Norm returns the Euclidean length of p as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 { return p.Sub(q).Norm() }

// String renders the point as "(x, y)".
func (p Point) String() string { return fmt.Sprintf("(%.6g, %.6g)", p.X, p.Y) }

// Segment is a closed line segment from A to B.
type Segment struct {
	A, B Point
}

// Length returns the segment's Euclidean length.
func (s Segment) Length() float64 { return s.A.Dist(s.B) }

// Orientation classifies the turn a→b→c:
// +1 counter-clockwise, -1 clockwise, 0 collinear (within Eps scaled by
// the operand magnitudes).
//
// With u = b−a, w = c−a and v = u×w, the defining test compares v with
// tol = Eps·max(|u|·|w|, 1). Two cheap filters decide most calls without
// the two Hypot norms, and each returns only what that test returns:
//   - |v| ≤ Eps gives 0, because tol is never below Eps (NaN norms make
//     the test return 0 too).
//   - |v| > Eps·max(1, ½(|u|²+|w|²)·(1+1e-9)) gives the sign of v,
//     because |u|·|w| ≤ ½(|u|²+|w|²) (AM–GM). The computed norms and the
//     sum of squares are each within a few ulps of exact, FMA contraction
//     included; the 1e-9 margin covers that rounding on both sides.
//
// Everything else — the narrow band between the filters, NaN, ±Inf and
// squares that overflow — falls through to the defining test unchanged.
func Orientation(a, b, c Point) int {
	u, w := b.Sub(a), c.Sub(a)
	v := u.Cross(w)
	av := math.Abs(v)
	if av <= Eps {
		return 0
	}
	if av > Eps*max(1, 0.5*(u.Dot(u)+w.Dot(w))*(1+1e-9)) {
		if v > 0 {
			return 1
		}
		return -1
	}
	tol := Eps * math.Max(u.Norm()*w.Norm(), 1)
	switch {
	case v > tol:
		return 1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

// onSegmentCollinear reports whether point p, known collinear with s, lies
// within s's bounding box.
func onSegmentCollinear(p Point, s Segment) bool {
	return p.X <= max(s.A.X, s.B.X)+Eps && p.X >= min(s.A.X, s.B.X)-Eps &&
		p.Y <= max(s.A.Y, s.B.Y)+Eps && p.Y >= min(s.A.Y, s.B.Y)-Eps
}

// IntersectKind classifies how two segments meet.
type IntersectKind int

const (
	// NoIntersection: the segments do not meet.
	NoIntersection IntersectKind = iota
	// ProperCrossing: the segments cross at a single interior point of
	// both.
	ProperCrossing
	// EndpointTouch: they meet at a point that is an endpoint of at least
	// one segment.
	EndpointTouch
	// CollinearOverlap: they are collinear and share more than one point.
	CollinearOverlap
)

// Intersect classifies the intersection of segments s and t and, for
// point intersections, returns the intersection point.
func Intersect(s, t Segment) (IntersectKind, Point) {
	o1 := Orientation(s.A, s.B, t.A)
	o2 := Orientation(s.A, s.B, t.B)
	o3 := Orientation(t.A, t.B, s.A)
	o4 := Orientation(t.A, t.B, s.B)

	if o1 != o2 && o3 != o4 && o1 != 0 && o2 != 0 && o3 != 0 && o4 != 0 {
		// Strict crossing: compute the point by parametric solve.
		d := s.B.Sub(s.A)
		e := t.B.Sub(t.A)
		den := d.Cross(e)
		u := t.A.Sub(s.A).Cross(e) / den
		return ProperCrossing, s.A.Add(d.Scale(u))
	}

	// Collinearity / touching cases.
	collinear := o1 == 0 && o2 == 0 && o3 == 0 && o4 == 0
	if collinear {
		// Collect the endpoints lying on the other segment; at most four,
		// so they fit in a stack array.
		var buf [4]Point
		pts := buf[:0]
		for _, p := range [2]Point{t.A, t.B} {
			if onSegmentCollinear(p, s) {
				pts = append(pts, p)
			}
		}
		for _, p := range [2]Point{s.A, s.B} {
			if onSegmentCollinear(p, t) {
				pts = append(pts, p)
			}
		}
		if len(pts) == 0 {
			return NoIntersection, Point{}
		}
		// Distinct contact points → overlap; all coincident → touch.
		first := pts[0]
		for _, p := range pts[1:] {
			if p.Dist(first) > Eps {
				return CollinearOverlap, first
			}
		}
		return EndpointTouch, first
	}

	// Non-collinear but some orientation is zero: a T-junction or
	// endpoint meeting.
	if o1 == 0 && onSegmentCollinear(t.A, s) {
		return EndpointTouch, t.A
	}
	if o2 == 0 && onSegmentCollinear(t.B, s) {
		return EndpointTouch, t.B
	}
	if o3 == 0 && onSegmentCollinear(s.A, t) {
		return EndpointTouch, s.A
	}
	if o4 == 0 && onSegmentCollinear(s.B, t) {
		return EndpointTouch, s.B
	}
	return NoIntersection, Point{}
}

// Projection is the result of dropping a perpendicular from a point onto
// the line through a segment.
type Projection struct {
	// Foot is the closest point on the closed segment.
	Foot Point
	// T is the line parameter: 0 at A, 1 at B; values outside [0,1] mean
	// the perpendicular foot fell outside the segment.
	T float64
	// Dist is the distance from the query point to Foot.
	Dist float64
	// Interior reports whether the perpendicular foot lies strictly
	// within the segment (the paper's "a perpendicular exists").
	Interior bool
}

// Project drops a perpendicular from p onto segment s. For degenerate
// segments the projection collapses to the endpoint.
func Project(p Point, s Segment) Projection {
	d := s.B.Sub(s.A)
	l2 := d.Dot(d)
	if l2 <= Eps*Eps {
		return Projection{Foot: s.A, T: 0, Dist: p.Dist(s.A), Interior: false}
	}
	t := p.Sub(s.A).Dot(d) / l2
	tc := math.Max(0, math.Min(1, t))
	foot := s.A.Add(d.Scale(tc))
	return Projection{
		Foot:     foot,
		T:        t,
		Dist:     p.Dist(foot),
		Interior: t > 0 && t < 1,
	}
}

// BoundingBox is an axis-aligned rectangle.
type BoundingBox struct {
	Min, Max Point
}

// BoxOf returns the bounding box of a segment.
func BoxOf(s Segment) BoundingBox {
	return BoundingBox{
		Min: Point{math.Min(s.A.X, s.B.X), math.Min(s.A.Y, s.B.Y)},
		Max: Point{math.Max(s.A.X, s.B.X), math.Max(s.A.Y, s.B.Y)},
	}
}

// Expand grows the box by margin on every side.
func (b BoundingBox) Expand(margin float64) BoundingBox {
	return BoundingBox{
		Min: Point{b.Min.X - margin, b.Min.Y - margin},
		Max: Point{b.Max.X + margin, b.Max.Y + margin},
	}
}

// Overlaps reports whether two boxes intersect (closed).
func (b BoundingBox) Overlaps(o BoundingBox) bool {
	return b.Min.X <= o.Max.X && o.Min.X <= b.Max.X &&
		b.Min.Y <= o.Max.Y && o.Min.Y <= b.Max.Y
}

// Contains reports whether the box contains p (closed).
func (b BoundingBox) Contains(p Point) bool {
	return p.X >= b.Min.X && p.X <= b.Max.X && p.Y >= b.Min.Y && p.Y <= b.Max.Y
}

// Union returns the smallest box containing both.
func (b BoundingBox) Union(o BoundingBox) BoundingBox {
	return BoundingBox{
		Min: Point{math.Min(b.Min.X, o.Min.X), math.Min(b.Min.Y, o.Min.Y)},
		Max: Point{math.Max(b.Max.X, o.Max.X), math.Max(b.Max.Y, o.Max.Y)},
	}
}
