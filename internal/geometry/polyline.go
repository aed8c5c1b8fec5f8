package geometry

import "math"

// Polyline is an ordered sequence of points; consecutive points define its
// segments. A fault trajectory is one polyline per circuit component.
type Polyline []Point

// Segments returns the polyline's segments in order. A polyline with
// fewer than two points has none.
func (pl Polyline) Segments() []Segment {
	if len(pl) < 2 {
		return nil
	}
	out := make([]Segment, 0, len(pl)-1)
	for i := 0; i+1 < len(pl); i++ {
		out = append(out, Segment{pl[i], pl[i+1]})
	}
	return out
}

// NearestSegment returns the index of the segment nearest to p, the
// projection onto it, and whether the polyline had any segments.
func (pl Polyline) NearestSegment(p Point) (int, Projection, bool) {
	segs := pl.Segments()
	if len(segs) == 0 {
		return 0, Projection{}, false
	}
	best := 0
	bestProj := Project(p, segs[0])
	for i := 1; i < len(segs); i++ {
		if pr := Project(p, segs[i]); pr.Dist < bestProj.Dist {
			best, bestProj = i, pr
		}
	}
	return best, bestProj, true
}

// DistTo returns the distance from p to the polyline (infinite for an
// empty one).
func (pl Polyline) DistTo(p Point) float64 {
	_, pr, ok := pl.NearestSegment(p)
	if !ok {
		return math.Inf(1)
	}
	return pr.Dist
}

// SharedOriginIntersections counts intersections between two polylines
// that both pass through a common point (the golden origin in the
// fault-trajectory plane), excluding meetings that happen within tol of
// that shared point — those are structural, not diagnostic ambiguity.
// It allocates nothing. Coordinates, origin and tol are expected to be
// finite: with NaN or ±Inf the count is still defined but may differ from
// SharedOriginIntersectionsBoxed's.
func SharedOriginIntersections(a, b Polyline, origin Point, tol float64) int {
	count := 0
	for i := 0; i+1 < len(a); i++ {
		s := Segment{a[i], a[i+1]}
		for j := 0; j+1 < len(b); j++ {
			count += offOriginCount(s, Segment{b[j], b[j+1]}, origin, tol)
		}
	}
	return count
}

// offOriginCount reports whether the segment pair contributes one
// off-origin intersection (the per-pair kernel of
// SharedOriginIntersections).
func offOriginCount(s, t Segment, origin Point, tol float64) int {
	k, p := Intersect(s, t)
	switch k {
	case ProperCrossing, EndpointTouch:
		if fartherThan(p, origin, tol) {
			return 1
		}
	case CollinearOverlap:
		// Overlap away from the origin is a common pathway.
		if endpointFartherThan(s, t, origin, tol) {
			return 1
		}
	}
	return 0
}

// SegmentBoxes fills dst (resliced, reallocated only if too small) with
// the per-segment bounding boxes of pl, each expanded by Eps so the
// Eps-tolerant intersection predicates can never find a meeting outside
// the boxes. Precomputing these once per polyline lets the pairwise
// counters skip disjoint segment pairs without rebuilding boxes per pair.
func (pl Polyline) SegmentBoxes(dst []BoundingBox) []BoundingBox {
	dst = dst[:0]
	for i := 0; i+1 < len(pl); i++ {
		dst = append(dst, BoxOf(Segment{pl[i], pl[i+1]}).Expand(Eps))
	}
	return dst
}

// SharedOriginIntersectionsBoxed is SharedOriginIntersections with
// caller-precomputed per-segment boxes (from SegmentBoxes) and
// whole-polyline boxes (the union of each polyline's segment boxes).
// Segment pairs with disjoint boxes are skipped before any intersection
// predicate runs, and when the two polylines' boxes only overlap within
// tol of the origin — trajectories leaving the origin into different
// regions of the plane — every point intersection is structural by
// construction, so only collinear overlaps (counted by their farthest
// segment endpoint) are still tested. Nothing is allocated.
//
// For finite coordinates, origin and tol the count equals
// SharedOriginIntersections', with one exception: the Eps padding of the
// boxes is lost to rounding once coordinates reach about 1e4, and a
// proper crossing at the far corner of the boxes' overlap can then round
// to a point outside it. If that overlap lies within tol of origin, this
// count drops the crossing and SharedOriginIntersections keeps it. With
// NaN or ±Inf the counts may differ further: a box with a NaN bound
// overlaps nothing, while the plain count still tests the segments.
func SharedOriginIntersectionsBoxed(a, b Polyline, aSeg, bSeg []BoundingBox, aBox, bBox BoundingBox, origin Point, tol float64) int {
	if !aBox.Overlaps(bBox) {
		return 0
	}
	// The overlap region contains every point where the polylines can
	// meet. If its farthest corner is within tol of the origin, any
	// ProperCrossing or EndpointTouch found there would be excluded as
	// structural — only CollinearOverlap can still count, because its
	// counting criterion looks at segment endpoints, which may lie
	// outside the overlap region.
	lo := Point{max(aBox.Min.X, bBox.Min.X), max(aBox.Min.Y, bBox.Min.Y)}
	hi := Point{min(aBox.Max.X, bBox.Max.X), min(aBox.Max.Y, bBox.Max.Y)}
	collinearOnly := !cornerFartherThan(lo, hi, origin, tol)

	count := 0
	for i := range aSeg {
		if !aSeg[i].Overlaps(bBox) {
			continue
		}
		s := Segment{a[i], a[i+1]}
		for j := range bSeg {
			if !aSeg[i].Overlaps(bSeg[j]) {
				continue
			}
			t := Segment{b[j], b[j+1]}
			if collinearOnly {
				if k, _ := Intersect(s, t); k == CollinearOverlap && endpointFartherThan(s, t, origin, tol) {
					count++
				}
				continue
			}
			count += offOriginCount(s, t, origin, tol)
		}
	}
	return count
}

// cornerFartherThan reports whether any corner of the rectangle [lo, hi]
// is farther than r from origin. The farthest point of a rectangle is
// one of its corners, so this is whether the rectangle leaves the disc.
func cornerFartherThan(lo, hi, origin Point, r float64) bool {
	return fartherThan(lo, origin, r) || fartherThan(hi, origin, r) ||
		fartherThan(Point{lo.X, hi.Y}, origin, r) || fartherThan(Point{hi.X, lo.Y}, origin, r)
}

// endpointFartherThan reports whether any endpoint of s or t is farther
// than r from origin.
func endpointFartherThan(s, t Segment, origin Point, r float64) bool {
	return fartherThan(s.A, origin, r) || fartherThan(s.B, origin, r) ||
		fartherThan(t.A, origin, r) || fartherThan(t.B, origin, r)
}

// fartherThan reports whether p.Dist(q) > r, for every input. When r² is
// a normal float, r > 0 and the squared distance d² = dx²+dy² is finite,
// it decides by d² against r²·(1±1e-9) without the Hypot: d², r² and
// Hypot are each within a few ulps of exact (underflowed terms of d² add
// under 2⁻¹⁰⁷³, negligible next to a normal r²), so d² beyond the margin
// puts the exact distance, and its computed Hypot, on the same side of r.
// The 1e-9 margin covers that rounding, FMA contraction included. Inside
// the margin, and for NaN, ±Inf, overflow or a tiny or non-positive r, it
// computes p.Dist(q) > r as written.
func fartherThan(p, q Point, r float64) bool {
	dx, dy := p.X-q.X, p.Y-q.Y
	if d2, r2 := dx*dx+dy*dy, r*r; r > 0 && r2 >= 0x1p-1022 && r2 <= math.MaxFloat64 && d2 <= math.MaxFloat64 {
		if d2 > r2*(1+1e-9) {
			return true
		}
		if d2 < r2*(1-1e-9) {
			return false
		}
	}
	return math.Hypot(dx, dy) > r
}

// OverlapLength estimates the length of a's portion that lies within tol
// of b, sampled at n points per segment. This is the "common pathway"
// metric the paper's fitness criterion wants minimized alongside
// intersections.
func OverlapLength(a, b Polyline, tol float64, n int) float64 {
	if n < 2 {
		n = 2
	}
	var overlap float64
	for _, s := range a.Segments() {
		step := s.Length() / float64(n-1)
		inside := 0
		for i := 0; i < n; i++ {
			t := float64(i) / float64(n-1)
			p := s.A.Add(s.B.Sub(s.A).Scale(t))
			if b.DistTo(p) <= tol {
				inside++
			}
		}
		overlap += step * float64(inside)
	}
	return overlap
}
