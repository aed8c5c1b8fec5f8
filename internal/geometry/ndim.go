package geometry

import (
	"fmt"
	"math"
)

// VecN is a point (or vector) in R^k for test vectors with k > 2
// frequencies. The paper uses k = 2; the k-D generalization powers the
// frequency-count ablation (experiment E6).
type VecN []float64

// DistN returns the Euclidean distance between a and b, which must have
// equal dimension.
func DistN(a, b VecN) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geometry: DistN dims %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s)
}

// DotN returns the dot product.
func DotN(a, b VecN) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("geometry: DotN dims %d vs %d", len(a), len(b)))
	}
	var s float64
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// NormN returns the Euclidean norm.
func NormN(a VecN) float64 { return math.Sqrt(DotN(a, a)) }

// ProjectionN is the k-dimensional analogue of Projection, without the
// foot point: T places the foot on the line through the segment (0 at
// its start, 1 at its end) and Dist is p's distance to the foot clamped
// onto the segment.
type ProjectionN struct {
	T        float64
	Dist     float64
	Interior bool
}

// ProjectN drops a perpendicular from p onto the segment a→b in R^k. It
// allocates nothing: the direction b − a and the clamped foot
// a + clamp(T)·(b − a) are formed one coordinate at a time.
func ProjectN(p, a, b VecN) ProjectionN {
	if len(a) != len(b) || len(p) != len(a) {
		panic(fmt.Sprintf("geometry: ProjectN dims %d, %d, %d", len(p), len(a), len(b)))
	}
	var l2 float64
	for i := range a {
		d := b[i] - a[i]
		l2 += d * d
	}
	if l2 <= Eps*Eps {
		return ProjectionN{T: 0, Dist: DistN(p, a)}
	}
	var dot float64
	for i := range a {
		dot += (p[i] - a[i]) * (b[i] - a[i])
	}
	t := dot / l2
	tc := math.Max(0, math.Min(1, t))
	var s float64
	for i := range a {
		e := p[i] - (a[i] + tc*(b[i]-a[i]))
		s += e * e
	}
	return ProjectionN{T: t, Dist: math.Sqrt(s), Interior: t > 0 && t < 1}
}

// PolylineN is an ordered point sequence in R^k.
type PolylineN []VecN

// Dim returns the dimension of the polyline's points (0 if empty).
func (pl PolylineN) Dim() int {
	if len(pl) == 0 {
		return 0
	}
	return len(pl[0])
}

// NearestSegmentN finds the closest segment of pl to p.
func (pl PolylineN) NearestSegmentN(p VecN) (int, ProjectionN, bool) {
	if len(pl) < 2 {
		return 0, ProjectionN{}, false
	}
	best := 0
	bestProj := ProjectN(p, pl[0], pl[1])
	for i := 1; i+1 < len(pl); i++ {
		if pr := ProjectN(p, pl[i], pl[i+1]); pr.Dist < bestProj.Dist {
			best, bestProj = i, pr
		}
	}
	return best, bestProj, true
}

// DistToN returns the distance from p to pl.
func (pl PolylineN) DistToN(p VecN) float64 {
	_, pr, ok := pl.NearestSegmentN(p)
	if !ok {
		return math.Inf(1)
	}
	return pr.Dist
}

// Project2D returns the 2D polyline of coordinates (i, j) of each point,
// used to count intersections of k-D trajectories in coordinate-plane
// projections.
func (pl PolylineN) Project2D(i, j int) Polyline {
	out := make(Polyline, len(pl))
	for k, p := range pl {
		out[k] = Point{p[i], p[j]}
	}
	return out
}
