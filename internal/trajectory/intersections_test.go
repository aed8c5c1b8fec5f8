package trajectory

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/circuits"
)

// bandVectors returns n seeded test vectors of k frequencies each, drawn
// the way the paper GA draws its genes: log-uniform over the band
// [ω₀/100, ω₀·100] of core.PaperOptimizeConfig, with ω₀ of nf-lowpass-7.
func bandVectors(n, k int, seed int64) [][]float64 {
	w0 := circuits.NFLowpass7().Omega0
	lo, hi := math.Log10(w0/100), math.Log10(w0*100)
	r := rand.New(rand.NewSource(seed))
	out := make([][]float64, n)
	for i := range out {
		v := make([]float64, k)
		for j := range v {
			v[j] = math.Pow(10, lo+(hi-lo)*r.Float64())
		}
		out[i] = v
	}
	return out
}

// TestIntersectionsPinnedOnBandVectors pins the paper's I on real maps:
// at seeded GA-band vectors, the Builder's cached, boxed count must equal
// the uncached sum of PairIntersections over every trajectory pair, and
// the total over all vectors must equal the figure recorded when the
// predicates were last changed. k = 3 runs the coordinate-plane path.
func TestIntersectionsPinnedOnBandVectors(t *testing.T) {
	d := paperDict(t)
	for _, tc := range []struct {
		name      string
		n, k      int
		seed      int64
		wantTotal int
	}{
		{"k2", 2000, 2, 1, 29580},
		{"k3", 200, 3, 2, 6898},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(d)
			total := 0
			for _, omegas := range bandVectors(tc.n, tc.k, tc.seed) {
				m, err := b.Build(nil, omegas)
				if err != nil {
					t.Fatal(err)
				}
				got := m.Intersections()
				want := 0
				for i, ta := range m.Trajectories {
					for _, tb := range m.Trajectories[i+1:] {
						n, err := m.PairIntersections(ta.Component, tb.Component)
						if err != nil {
							t.Fatal(err)
						}
						want += n
					}
				}
				if got != want {
					t.Fatalf("ω = %v: cached I = %d, pairwise sum = %d", omegas, got, want)
				}
				total += got
			}
			if total != tc.wantTotal {
				t.Fatalf("total I over %d vectors = %d, want %d", tc.n, total, tc.wantTotal)
			}
		})
	}
}

// BenchmarkMapIntersections times the GA fitness count alone: the cached
// Map.Intersections over 2000 seeded GA-band maps, one map per op. It
// must report 0 allocs/op.
func BenchmarkMapIntersections(b *testing.B) {
	d := paperDict(b)
	vecs := bandVectors(2000, 2, 1)
	maps := make([]*Map, len(vecs))
	for i, omegas := range vecs {
		m, err := Build(nil, d, omegas)
		if err != nil {
			b.Fatal(err)
		}
		m.cache = new(intersectCache)
		m.cache.build(m)
		maps[i] = m
	}
	b.ReportAllocs()
	b.ResetTimer()
	total := 0
	for i := 0; i < b.N; i++ {
		total += maps[i%len(maps)].Intersections()
	}
	if total < 0 {
		b.Fatal("negative intersection count")
	}
}
