package geometry

import (
	"math"
	"math/rand"
	"testing"
)

// orientationOracle is Orientation's defining test without the filters:
// the sign of v = (b−a)×(c−a) beyond Eps·max(|b−a|·|c−a|, 1).
func orientationOracle(a, b, c Point) int {
	v := b.Sub(a).Cross(c.Sub(a))
	scale := b.Sub(a).Norm() * c.Sub(a).Norm()
	tol := Eps * math.Max(scale, 1)
	switch {
	case v > tol:
		return 1
	case v < -tol:
		return -1
	default:
		return 0
	}
}

// fartherOracle is fartherThan's definition.
func fartherOracle(p, q Point, r float64) bool { return p.Dist(q) > r }

// specialValue draws a coordinate that is often a float64 edge case: ±0,
// NaN, ±Inf, the extremes, or random values near 1e-13, 1 and 1e150.
func specialValue(r *rand.Rand) float64 {
	sign := 1.0
	if r.Intn(2) == 0 {
		sign = -1
	}
	switch r.Intn(12) {
	case 0:
		return sign * 0
	case 1:
		return math.NaN()
	case 2:
		return sign * math.Inf(1)
	case 3:
		return sign * math.MaxFloat64
	case 4:
		return sign * math.SmallestNonzeroFloat64
	case 5:
		return sign * 1e-13 * r.Float64()
	case 6:
		return sign * 1e150 * r.Float64()
	case 7:
		return sign * 1e154 * r.Float64()
	case 8:
		return float64(r.Intn(5) - 2)
	default:
		return r.NormFloat64()
	}
}

// TestPredicatesMatchOraclesOnSpecialValues checks the filtered
// predicates against their oracles over random special-value inputs;
// the fuzz targets below explore further from the same oracles.
func TestPredicatesMatchOraclesOnSpecialValues(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	pt := func() Point { return Point{specialValue(r), specialValue(r)} }
	for i := 0; i < 200000; i++ {
		a, b, c := pt(), pt(), pt()
		if got, want := Orientation(a, b, c), orientationOracle(a, b, c); got != want {
			t.Fatalf("Orientation(%v, %v, %v) = %d, oracle %d", a, b, c, got, want)
		}
		rad := specialValue(r)
		if got, want := fartherThan(a, b, rad), fartherOracle(a, b, rad); got != want {
			t.Fatalf("fartherThan(%v, %v, %g) = %v, oracle %v", a, b, rad, got, want)
		}
	}
}

func FuzzOrientation(f *testing.F) {
	seed := func(a, b, c Point) {
		bits := math.Float64bits
		f.Add(bits(a.X), bits(a.Y), bits(b.X), bits(b.Y), bits(c.X), bits(c.Y))
	}
	nan, inf, negz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	seed(Point{0, 0}, Point{1, 0}, Point{0.5, 1})                // CCW
	seed(Point{0, 0}, Point{1, 0}, Point{2, 0})                  // collinear
	seed(Point{0, 0}, Point{1, 1}, Point{1, 1})                  // touching
	seed(Point{1, 1}, Point{1, 1}, Point{2, 3})                  // zero-length
	seed(Point{0, 0}, Point{1, 0}, Point{0.5, 1e-12})            // at the Eps band
	seed(Point{0, 0}, Point{2e6, 0}, Point{1e6, 5e-7})           // at the scaled band
	seed(Point{1e-13, 0}, Point{0, 3e-13}, Point{-2e-13, 1e-13}) // below Eps
	seed(Point{1e150, -1e150}, Point{-1e150, 2e150}, Point{3e150, 1e150})
	seed(Point{1e154, 0}, Point{0, 1e154}, Point{-1e154, -1e154}) // squares overflow
	seed(Point{negz, negz}, Point{negz, 1}, Point{1, negz})
	seed(Point{nan, 0}, Point{1, 0}, Point{0, 1})
	seed(Point{0, 0}, Point{inf, 0}, Point{0, 1})
	seed(Point{-inf, 1}, Point{inf, 1}, Point{0, -inf})
	f.Fuzz(func(t *testing.T, ax, ay, bx, by, cx, cy uint64) {
		fb := math.Float64frombits
		a, b, c := Point{fb(ax), fb(ay)}, Point{fb(bx), fb(by)}, Point{fb(cx), fb(cy)}
		if got, want := Orientation(a, b, c), orientationOracle(a, b, c); got != want {
			t.Fatalf("Orientation(%v, %v, %v) = %d, oracle %d", a, b, c, got, want)
		}
	})
}

func FuzzFartherThan(f *testing.F) {
	seed := func(p, q Point, r float64) {
		bits := math.Float64bits
		f.Add(bits(p.X), bits(p.Y), bits(q.X), bits(q.Y), bits(r))
	}
	nan, inf, negz := math.NaN(), math.Inf(1), math.Copysign(0, -1)
	seed(Point{3, 4}, Point{}, 5)                  // exactly on the circle
	seed(Point{3, 4}, Point{}, 5*(1+1e-9))         // at the margin
	seed(Point{1, 1}, Point{1, 1}, 0)              // zero distance
	seed(Point{1e-13, 2e-13}, Point{}, 1e-13)      // tiny
	seed(Point{1e-160, 0}, Point{}, 1e-160)        // r² below the normals
	seed(Point{1e150, 1e150}, Point{}, 1.4e150)    // squares fine, near r
	seed(Point{1e160, 0}, Point{-1e160, 0}, 1e155) // squares overflow
	seed(Point{negz, negz}, Point{0, 0}, negz)     // signed zeros
	seed(Point{2, 0}, Point{}, -1)                 // negative radius
	seed(Point{nan, 0}, Point{}, 1)                // NaN coordinate
	seed(Point{inf, nan}, Point{}, 1)              // Hypot(Inf, NaN) = Inf
	seed(Point{1, 1}, Point{}, inf)                // infinite radius
	seed(Point{1, 1}, Point{inf, 0}, nan)          // NaN radius
	seed(Point{math.MaxFloat64, 0}, Point{}, math.MaxFloat64)
	f.Fuzz(func(t *testing.T, px, py, qx, qy, rb uint64) {
		fb := math.Float64frombits
		p, q, r := Point{fb(px), fb(py)}, Point{fb(qx), fb(qy)}, fb(rb)
		if got, want := fartherThan(p, q, r), fartherOracle(p, q, r); got != want {
			t.Fatalf("fartherThan(%v, %v, %g) = %v, oracle %v", p, q, r, got, want)
		}
	})
}

// boxedAsCached counts a and b with SharedOriginIntersectionsBoxed over
// boxes built the way the trajectory intersection cache builds them:
// SegmentBoxes, and each polyline box the union of its segment boxes.
// It also returns the overlap of the two polyline boxes.
func boxedAsCached(a, b Polyline, tol float64) (int, BoundingBox) {
	as, bs := a.SegmentBoxes(nil), b.SegmentBoxes(nil)
	ab, bb := as[0], bs[0]
	for _, x := range as[1:] {
		ab = ab.Union(x)
	}
	for _, x := range bs[1:] {
		bb = bb.Union(x)
	}
	overlap := BoundingBox{
		Min: Point{math.Max(ab.Min.X, bb.Min.X), math.Max(ab.Min.Y, bb.Min.Y)},
		Max: Point{math.Min(ab.Max.X, bb.Max.X), math.Min(ab.Max.Y, bb.Max.Y)},
	}
	return SharedOriginIntersectionsBoxed(a, b, as, bs, ab, bb, Point{}, tol), overlap
}

// roundedCrossingOutside reports whether some segment pair of a and b
// crosses properly at a computed point outside box — the one case, for
// finite coordinates, where the boxed count may drop a crossing the
// plain count keeps (see TestBoxedCountDropsCrossingRoundedOutsideBoxes).
func roundedCrossingOutside(a, b Polyline, box BoundingBox) bool {
	for i := 0; i+1 < len(a); i++ {
		for j := 0; j+1 < len(b); j++ {
			if k, p := Intersect(Segment{a[i], a[i+1]}, Segment{b[j], b[j+1]}); k == ProperCrossing && !box.Contains(p) {
				return true
			}
		}
	}
	return false
}

// TestBoxedCountDropsCrossingRoundedOutsideBoxes pins the known split
// between the boxed and the plain count for finite coordinates. Segment
// boxes are padded by Eps, which rounding erases once coordinates reach
// about 1e4; a proper crossing at the far corner of the polyline boxes'
// overlap can then round to a point just outside it. When that overlap
// lies within tol of the origin, the boxed count treats every point
// meeting there as structural and drops the crossing; the plain count
// measures the rounded point and keeps it.
func TestBoxedCountDropsCrossingRoundedOutsideBoxes(t *testing.T) {
	// a's vertical leg and b's horizontal leg cross at the overlap's far
	// corner (hx, hy), and tol is that corner's distance.
	const hx, hy = 95043.92408073973, 217603.69422571256
	a := Polyline{{}, {hx, 62738.02267512326}, {hx, 286760.975944556}}
	b := Polyline{{}, {20909.6593091734, hy}, {140376.46403575005, hy}}
	tol := math.Hypot(hx, hy)
	boxed, overlap := boxedAsCached(a, b, tol)
	if !roundedCrossingOutside(a, b, overlap) {
		t.Skip("the crossing rounds inside the box overlap on this platform")
	}
	if plain := SharedOriginIntersections(a, b, Point{}, tol); plain != 1 || boxed != 0 {
		t.Fatalf("plain = %d, boxed = %d; want 1 and 0", plain, boxed)
	}
}

func FuzzSharedOriginIntersections(f *testing.F) {
	// a runs a0 → origin → a1 → a2 and b runs b0 → b1 → origin → b2, so
	// every pair shares the origin.
	seed := func(a0, a1, a2, b0, b1, b2 Point, tol float64) {
		f.Add(a0.X, a0.Y, a1.X, a1.Y, a2.X, a2.Y, b0.X, b0.Y, b1.X, b1.Y, b2.X, b2.Y, tol)
	}
	negz := math.Copysign(0, -1)
	seed(Point{-1, -1}, Point{1, 1}, Point{2, 0}, Point{-1, 1}, Point{-0.5, 0.5}, Point{1, -1}, 1e-9)  // X at the origin
	seed(Point{-1, 0}, Point{1, 0}, Point{2, 0}, Point{3, 0}, Point{1.5, 0}, Point{-0.5, 0}, 1e-6)     // collinear overlap
	seed(Point{-1, 0}, Point{1, 1}, Point{2, 1}, Point{0, 2}, Point{1, 1}, Point{1, -1}, 1e-6)         // shared vertex, collinear legs
	seed(Point{-1, 0}, Point{2, 2}, Point{4, 0}, Point{0, 3}, Point{1, 1}, Point{1, -2}, 1e-6)         // T-junction
	seed(Point{1, 1}, Point{}, Point{1, 1}, Point{0, 1}, Point{0, 1}, Point{-1, 0}, 1e-6)              // zero-length segments
	seed(Point{-1, 0.5}, Point{0.5, 1}, Point{1, 0.5}, Point{1, 0.2}, Point{-1, 0.5}, Point{0, -1}, 1) // crossing near tol
	seed(Point{-1e-13, 2e-13}, Point{3e-13, -1e-13}, Point{1e-13, 1e-13},
		Point{2e-13, 2e-13}, Point{-1e-13, 0}, Point{0, 3e-13}, 1e-15) // below Eps
	seed(Point{-1e150, 1e150}, Point{1e150, 2e150}, Point{3e150, -1e150},
		Point{2e150, 2e150}, Point{-1e150, -3e150}, Point{0, 1e150}, 1e140) // squares overflow
	seed(Point{negz, -1}, Point{negz, 1}, Point{1, 1}, Point{1, negz}, Point{negz, negz}, Point{-1, 1}, negz)
	f.Fuzz(func(t *testing.T, a0x, a0y, a1x, a1y, a2x, a2y, b0x, b0y, b1x, b1y, b2x, b2y, tol float64) {
		for _, v := range [...]float64{a0x, a0y, a1x, a1y, a2x, a2y, b0x, b0y, b1x, b1y, b2x, b2y, tol} {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return // the counts are specified for finite values only
			}
		}
		a := Polyline{{a0x, a0y}, {}, {a1x, a1y}, {a2x, a2y}}
		b := Polyline{{b0x, b0y}, {b1x, b1y}, {}, {b2x, b2y}}
		boxed, overlap := boxedAsCached(a, b, tol)
		if roundedCrossingOutside(a, b, overlap) {
			return // the documented split
		}
		if plain := SharedOriginIntersections(a, b, Point{}, tol); boxed != plain {
			t.Fatalf("a = %v, b = %v, tol = %g: boxed %d, plain %d", a, b, tol, boxed, plain)
		}
	})
}
