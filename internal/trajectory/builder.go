package trajectory

import (
	"context"
	"fmt"
	"math"

	"repro/internal/dictionary"
	"repro/internal/geometry"
	"repro/internal/rerr"
	"repro/internal/sliceutil"
)

// Builder constructs trajectory maps into storage it owns and reuses:
// the batched-solve scratch, the Map with its trajectories, the point
// coordinates (one flat backing array), and the intersection cache the
// fitness function reads. After a warm-up build, rebuilding a map of the
// same shape (same universe, same test-vector size) allocates nothing —
// the property the GA fitness loop depends on, where the same ~60-fault
// universe is rebuilt for thousands of candidate test vectors.
//
// The Map returned by Build is owned by the Builder and valid until the
// next Build call; callers that keep a map (or hand it to a concurrent
// consumer) use the package-level Build, which dedicates a fresh Builder
// per call. A Builder is not safe for concurrent use — hold one per
// goroutine.
type Builder struct {
	d       *dictionary.Dictionary
	scratch dictionary.SignatureScratch
	m       Map
	trajs   []Trajectory    // backing structs behind m.Trajectories
	devs    []float64       // flat backing for all Deviations
	pts     []geometry.VecN // flat backing for all Points headers
	coords  []float64       // flat backing for all point coordinates
	origin  geometry.VecN   // the shared golden origin (all zeros)
	cache   intersectCache
}

// NewBuilder returns a Builder over the dictionary's fault universe.
func NewBuilder(d *dictionary.Dictionary) *Builder {
	return &Builder{d: d}
}

// Build constructs the trajectory map for the given test vector, reusing
// the Builder's storage. Semantics (validation, cancellation, resulting
// map contents) are identical to the package-level Build; see its
// documentation. The returned map carries a prebuilt intersection cache,
// so the following Intersections call — the GA fitness read — allocates
// nothing. The map and everything it references are invalidated by the
// next Build call on this Builder.
func (b *Builder) Build(ctx context.Context, omegas []float64) (*Map, error) {
	m, err := b.build(ctx, omegas)
	if err != nil {
		return nil, err
	}
	b.cache.build(m)
	m.cache = &b.cache
	return m, nil
}

// build fills the Builder's map without touching the intersection cache
// — the shared core of Builder.Build and the package-level Build, which
// returns cache-less maps so persisted artifacts stay deep-equal across
// a save/load round-trip.
func (b *Builder) build(ctx context.Context, omegas []float64) (*Map, error) {
	if len(omegas) == 0 {
		return nil, fmt.Errorf("trajectory: empty test vector")
	}
	for _, w := range omegas {
		if w <= 0 || math.IsNaN(w) || math.IsInf(w, 0) {
			return nil, fmt.Errorf("trajectory: %w: invalid test frequency %g (a test vector needs finite ω > 0)", rerr.ErrBadConfig, w)
		}
	}
	// Signatures are row-aligned with the universe faults:
	// component-major, each component's block sorted ascending by
	// deviation. The *Into path bypasses the dictionary memo.
	sigs, err := b.d.UniverseSignaturesInto(ctx, omegas, &b.scratch)
	if err != nil {
		return nil, err
	}
	u := b.d.Universe()
	ncomp := len(u.Components)
	perComp := len(u.Deviations)
	npp := perComp + 1 // every trajectory gains the golden origin
	k := len(omegas)

	b.m.Omegas = append(b.m.Omegas[:0], omegas...)
	b.origin = sliceutil.Grow(b.origin, k)
	for i := range b.origin {
		b.origin[i] = 0
	}
	b.devs = sliceutil.Grow(b.devs, ncomp*npp)
	b.coords = sliceutil.Grow(b.coords, ncomp*perComp*k)
	b.pts = sliceutil.Grow(b.pts, ncomp*npp)
	b.trajs = sliceutil.Grow(b.trajs, ncomp)
	b.m.Trajectories = sliceutil.Grow(b.m.Trajectories, ncomp)

	for ci, comp := range u.Components {
		tr := &b.trajs[ci]
		tr.Component = comp
		tr.Deviations = b.devs[ci*npp : ci*npp : (ci+1)*npp]
		tr.Points = geometry.PolylineN(b.pts[ci*npp : ci*npp : (ci+1)*npp])
		// Deviations are sorted ascending; insert the golden origin
		// between the last negative and first positive.
		inserted := false
		for di, dev := range u.Deviations {
			if !inserted && dev > 0 {
				tr.Deviations = append(tr.Deviations, 0)
				tr.Points = append(tr.Points, b.origin)
				inserted = true
			}
			at := (ci*perComp + di) * k
			pt := geometry.VecN(b.coords[at : at : at+k])
			pt = append(pt, sigs[ci*perComp+di]...)
			tr.Deviations = append(tr.Deviations, dev)
			tr.Points = append(tr.Points, pt)
		}
		if !inserted {
			tr.Deviations = append(tr.Deviations, 0)
			tr.Points = append(tr.Points, b.origin)
		}
		b.m.Trajectories[ci] = tr
	}
	b.m.cache = nil
	return &b.m, nil
}

// intersectCache holds everything Intersections needs that depends only
// on the map's geometry, not on the pair being counted: the origin
// tolerance, the coordinate-plane projections of every trajectory, their
// per-segment bounding boxes, and each projection's overall box. The old
// code recomputed the tolerance per call and both projections per
// trajectory pair — ncomp−1 times per trajectory per call.
type intersectCache struct {
	tol     float64
	pairs   [][2]int            // coordinate planes (i, j); empty for dim < 2
	proj    []geometry.Polyline // [traj*len(pairs)+plane]
	seg     [][]geometry.BoundingBox
	box     []geometry.BoundingBox
	pts     []geometry.Point       // backing for proj
	segFlat []geometry.BoundingBox // backing for seg
}

// build fills the cache for m, reusing prior storage.
func (c *intersectCache) build(m *Map) {
	c.tol = m.originTolerance()
	dim := m.Dim()
	c.pairs = c.pairs[:0]
	for i := 0; i < dim; i++ {
		for j := i + 1; j < dim; j++ {
			c.pairs = append(c.pairs, [2]int{i, j})
		}
	}
	nt := len(m.Trajectories)
	np := len(c.pairs)
	totPts, totSeg := 0, 0
	for _, t := range m.Trajectories {
		n := len(t.Points)
		totPts += n * np
		if n > 1 {
			totSeg += (n - 1) * np
		}
	}
	c.pts = sliceutil.Grow(c.pts, totPts)
	c.segFlat = sliceutil.Grow(c.segFlat, totSeg)
	c.proj = sliceutil.Grow(c.proj, nt*np)
	c.seg = sliceutil.Grow(c.seg, nt*np)
	c.box = sliceutil.Grow(c.box, nt*np)

	po, so := 0, 0
	for ti, t := range m.Trajectories {
		n := len(t.Points)
		ns := 0
		if n > 1 {
			ns = n - 1
		}
		for pi, pr := range c.pairs {
			pl := geometry.Polyline(c.pts[po : po : po+n])
			for _, p := range t.Points {
				pl = append(pl, geometry.Point{X: p[pr[0]], Y: p[pr[1]]})
			}
			po += n
			idx := ti*np + pi
			c.proj[idx] = pl
			sb := pl.SegmentBoxes(c.segFlat[so : so : so+ns])
			so += ns
			c.seg[idx] = sb
			var bb geometry.BoundingBox
			if len(sb) > 0 {
				bb = sb[0]
				for _, b := range sb[1:] {
					bb = bb.Union(b)
				}
			}
			c.box[idx] = bb
		}
	}
}

// count runs the paper's intersection count off the cache. Maps without
// a cache build the same one per call, so the counts are identical; how
// the boxed count relates to PairIntersections' unboxed one is
// documented at geometry.SharedOriginIntersectionsBoxed.
func (c *intersectCache) count(m *Map) int {
	nt := len(m.Trajectories)
	np := len(c.pairs)
	dim := m.Dim()
	total := 0
	for i := 0; i < nt; i++ {
		for j := i + 1; j < nt; j++ {
			for p := 0; p < np; p++ {
				total += geometry.SharedOriginIntersectionsBoxed(
					c.proj[i*np+p], c.proj[j*np+p],
					c.seg[i*np+p], c.seg[j*np+p],
					c.box[i*np+p], c.box[j*np+p],
					geometry.Point{}, c.tol)
			}
			if dim == 1 {
				// Intervals on a line: overlap beyond tol counts as one.
				if overlap1(project1(m.Trajectories[i]), project1(m.Trajectories[j])) > c.tol {
					total++
				}
			}
		}
	}
	return total
}
