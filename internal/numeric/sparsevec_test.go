package numeric

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"slices"
	"testing"
)

// sparseVecCase is one half-solve fixture: a pattern and one frequency
// block of value planes.
type sparseVecCase struct {
	name       string
	sym        *SparseSymbolic
	ares, aims [FreqBlock][]float64
}

// sparseVecCases builds the fixture set: random unsymmetric systems and
// 2-D grid meshes.
func sparseVecCases(t *testing.T, rng *rand.Rand) []sparseVecCase {
	var out []sparseVecCase
	for trial := 0; trial < 20; trial++ {
		n := 1 + rng.Intn(40)
		m, rows := randSparseSystem(rng, n)
		sym, err := AnalyzeSparse(n, rows)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		re, im := planesFor(t, sym, m)
		ares, aims := blockPlanes(re, im)
		out = append(out, sparseVecCase{fmt.Sprintf("rand-%d", n), sym, ares, aims})
	}
	for _, k := range []int{3, 8, 16} {
		n, rows, planes := gridSystem(rng, k)
		sym, err := AnalyzeSparse(n, rows)
		if err != nil {
			t.Fatalf("grid analyze: %v", err)
		}
		re, im := planes(sym)
		ares, aims := blockPlanes(re, im)
		out = append(out, sparseVecCase{fmt.Sprintf("grid-%d", k), sym, ares, aims})
	}
	return out
}

// TestHalfSolvesMatchSolve pins the sparse-vector identity on every
// plane of a RefactorBlock: for random sparse q and p, wᵀy from the
// reach-limited half-solves equals pᵀ(A⁻¹q) from SolveInto to 1e-11
// of the summed term magnitudes of either side, and the half-solves leave their vectors zero outside the
// reach.
func TestHalfSolvesMatchSolve(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	var br BlockRefactorer
	var rc Reacher
	for _, cs := range sparseVecCases(t, rng) {
		var lus [FreqBlock]SparseLU
		for f, err := range br.RefactorBlock(cs.sym, &lus, &cs.ares, &cs.aims) {
			if err != nil {
				t.Fatalf("%s plane %d: %v", cs.name, f, err)
			}
		}
		n := cs.sym.N()
		y := make([]float64, n*fbStride)
		w := make([]float64, n*fbStride)
		x := make([]complex128, n)
		for trial := 0; trial < 8; trial++ {
			q := make([]complex128, n)
			p := make([]complex128, n)
			var qs, ps []int32
			for k := 0; k < 1+rng.Intn(3); k++ {
				o := rng.Intn(n)
				v := complex(rng.Float64()-0.5, rng.Float64()-0.5)
				q[o] += v
				SeedBlock(y, cs.sym.PermRow(o), v)
				qs = append(qs, int32(cs.sym.PermRow(o)))
			}
			for k := 0; k < 1+rng.Intn(3); k++ {
				o := rng.Intn(n)
				v := complex(rng.Float64()-0.5, rng.Float64()-0.5)
				p[o] += v
				SeedBlock(w, cs.sym.PermCol(o), v)
				ps = append(ps, int32(cs.sym.PermCol(o)))
			}
			ry, _ := rc.LowerReach(cs.sym, nil, qs)
			rw, _ := rc.UpperReach(cs.sym, nil, ps)
			br.LowerSolve(cs.sym, y, ry)
			br.UpperTSolve(cs.sym, w, rw)
			var got [FreqBlock]complex128
			DotBlock(&got, w, y, rw, false)
			for f := 0; f < FreqBlock; f++ {
				if err := lus[f].SolveInto(x, q); err != nil {
					t.Fatal(err)
				}
				var want complex128
				var scale float64
				for o := range p {
					want += p[o] * x[o]
					scale += cmplx.Abs(p[o] * x[o])
				}
				var wyScale float64
				for _, i := range rw {
					wi := complex(w[int(i)*fbStride+f], w[int(i)*fbStride+FreqBlock+f])
					yi := complex(y[int(i)*fbStride+f], y[int(i)*fbStride+FreqBlock+f])
					wyScale += cmplx.Abs(wi * yi)
				}
				// Relative to the larger summed term magnitude: either
				// route may cancel, the dot more than the full solve's
				// last back-substitution step.
				scale = max(scale, wyScale)
				if d := cmplx.Abs(got[f] - want); d > 1e-11*scale {
					t.Fatalf("%s trial %d plane %d: wᵀy = %v, pᵀA⁻¹q = %v", cs.name, trial, f, got[f], want)
				}
			}
			ClearBlock(y, ry)
			ClearBlock(w, rw)
			for i, v := range y {
				if v != 0 || w[i] != 0 {
					t.Fatalf("%s trial %d: entry %d left nonzero outside the reach", cs.name, trial, i/fbStride)
				}
			}
		}
	}
}

// TestReachAllocationFree pins that reaches reuse their scratch: once
// the destination has capacity, computing a reach allocates nothing.
func TestReachAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(59))
	n, rows, _ := gridSystem(rng, 12)
	sym, err := AnalyzeSparse(n, rows)
	if err != nil {
		t.Fatal(err)
	}
	var rc Reacher
	dst := make([]int32, 0, 2*n)
	seeds := []int32{3, 70}
	if avg := testing.AllocsPerRun(20, func() {
		dst, _ = rc.LowerReach(sym, dst[:0], seeds)
		dst, _ = rc.UpperReach(sym, dst, seeds)
	}); avg != 0 {
		t.Fatalf("reach allocates %.1f objects per run", avg)
	}
}

// sameBitsOrNaN fails t unless got holds want's bits, the sign of zeros
// included, and is NaN exactly where want is. A NaN's payload and sign
// are not compared: where two NaNs meet in an add or a multiply, IEEE
// 754 leaves open whose survives, and Go's compiler, which treats both
// operations as commutative, orders their operands as register
// allocation suits. A failed plane carries NaNs of both signs (recip
// negates one), so this is no corner case; no arithmetic turns a NaN
// back into a number, so nothing else can differ.
func sameBitsOrNaN(t *testing.T, name string, want, got []float64) {
	t.Helper()
	for i := range want {
		if math.Float64bits(want[i]) != math.Float64bits(got[i]) && !(math.IsNaN(want[i]) && math.IsNaN(got[i])) {
			t.Fatalf("%s: value %d (position %d lane %d) is %g (%#x) with AVX, %g (%#x) in Go",
				name, i, i/fbStride, i%fbStride, got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// dotBits flattens a DotBlock result for sameBitsOrNaN.
func dotBits(d *[FreqBlock]complex128) []float64 {
	out := make([]float64, 0, 2*FreqBlock)
	for _, c := range d {
		out = append(out, real(c), imag(c))
	}
	return out
}

// TestSparseVecKernelsMatchGo pins the AVX half-solves and dots to the
// Go loops bit for bit, NaN payloads aside (sameBitsOrNaN): LowerSolve,
// UpperTSolve and DotBlock (over an interleaved vector, and packed on an
// offset sub-slice) run with the kernels on and off over the
// sparseVecCases and a diagonal pattern, whose L has no strictly-lower
// entries. One plane of each case's factors fails (a zeroed row), so its
// lanes carry ±Inf and NaN; the seeded vectors mix finite values with
// positions that are ±0 in some planes only, positions that are ±0 in
// every plane (the walks' skip), and ±Inf or NaN lanes; and every call
// also runs on an empty reach.
func TestSparseVecKernelsMatchGo(t *testing.T) {
	if !fbAVX {
		t.Skip("no AVX: the Go loops are the only path")
	}
	rng := rand.New(rand.NewSource(61))
	negz := math.Copysign(0, -1)
	cases := sparseVecCases(t, rng)
	diag := make([][]int, 5)
	for i := range diag {
		diag[i] = []int{i}
	}
	dsym, err := AnalyzeSparse(len(diag), diag)
	if err != nil {
		t.Fatal(err)
	}
	var dre, dim [FreqBlock][]float64
	for f := range dre {
		dre[f] = make([]float64, dsym.LUNNZ())
		dim[f] = make([]float64, dsym.LUNNZ())
		for p := range dre[f] {
			dre[f][p], dim[f][p] = 1+rng.Float64(), float64(f)*rng.Float64()
		}
	}
	cases = append(cases, sparseVecCase{"diagonal", dsym, dre, dim})

	// lane draws one lane value: mostly finite, sometimes ±0, ±Inf or NaN.
	lane := func() float64 {
		switch r := rng.Intn(16); {
		case r < 2:
			return 0
		case r < 4:
			return negz
		case r == 4:
			return math.Inf(1 - 2*rng.Intn(2))
		case r == 5:
			return math.NaN()
		default:
			return rng.Float64() - 0.5
		}
	}
	// seed fills position i of v: every lane ±0, or a lane mix.
	seed := func(v []float64, i int) {
		b := v[i*fbStride : i*fbStride+fbStride]
		allZero := rng.Intn(4) == 0
		for l := range b {
			if allZero {
				b[l] = [2]float64{0, negz}[rng.Intn(2)]
			} else {
				b[l] = lane()
			}
		}
	}
	var br BlockRefactorer
	var rc Reacher
	for _, cs := range cases {
		n := cs.sym.N()
		if n > 1 {
			// Plane 3 fails at a zeroed row and rides on non-finite.
			for p := cs.sym.rowStart[n/2]; p < cs.sym.rowStart[n/2+1]; p++ {
				cs.ares[3][p], cs.aims[3][p] = 0, 0
			}
		}
		var lus [FreqBlock]SparseLU
		br.RefactorBlock(cs.sym, &lus, &cs.ares, &cs.aims)
		for trial := 0; trial < 8; trial++ {
			y := make([]float64, n*fbStride)
			w := make([]float64, n*fbStride)
			var qs, ps []int32
			for k := 0; k < 1+rng.Intn(3); k++ {
				qs = append(qs, int32(rng.Intn(n)))
				ps = append(ps, int32(rng.Intn(n)))
			}
			ry, _ := rc.LowerReach(cs.sym, nil, qs)
			rw, _ := rc.UpperReach(cs.sym, nil, ps)
			for _, i := range qs {
				seed(y, int(i))
			}
			for _, i := range ps {
				seed(w, int(i))
			}
			tag := fmt.Sprintf("%s trial %d", cs.name, trial)
			for _, reach := range [][]int32{ry, nil} {
				goY, avxY := slices.Clone(y), slices.Clone(y)
				withAVX(false, func() { br.LowerSolve(cs.sym, goY, reach) })
				withAVX(true, func() { br.LowerSolve(cs.sym, avxY, reach) })
				sameBitsOrNaN(t, tag+" LowerSolve", goY, avxY)
			}
			for _, reach := range [][]int32{rw, nil} {
				goW, avxW := slices.Clone(w), slices.Clone(w)
				withAVX(false, func() { br.UpperTSolve(cs.sym, goW, reach) })
				withAVX(true, func() { br.UpperTSolve(cs.sym, avxW, reach) })
				sameBitsOrNaN(t, tag+" UpperTSolve", goW, avxW)
			}
			br.LowerSolve(cs.sym, y, ry)
			br.UpperTSolve(cs.sym, w, rw)
			// y packed along its reach at an offset into a longer buffer,
			// as the engine packs every slot's y into one.
			off := rng.Intn(3)
			pack := make([]float64, (off+len(ry)+rng.Intn(2))*fbStride)
			GatherBlock(pack[off*fbStride:], y, ry)
			for _, dot := range []struct {
				name   string
				a, b   []float64
				idx    []int32
				packed bool
			}{
				{"DotBlock", w, y, rw, false},
				{"DotBlock packed", pack[off*fbStride:], w, ry, true},
				{"DotBlock empty", w, y, nil, false},
			} {
				var goD, avxD [FreqBlock]complex128
				withAVX(false, func() { DotBlock(&goD, dot.a, dot.b, dot.idx, dot.packed) })
				withAVX(true, func() { DotBlock(&avxD, dot.a, dot.b, dot.idx, dot.packed) })
				sameBitsOrNaN(t, tag+" "+dot.name, dotBits(&goD), dotBits(&avxD))
			}
		}
	}
}

// TestSparseVecKernelsPanicOutOfRange pins the checks that stand in for
// the Go loops' bounds checks, on both paths: a vector or lanes not
// sized for the pattern, a reach entry outside [0, n) (at either end
// of the reach, or in its middle, where an unsorted reach puts it), a
// packed operand shorter than its indices and a dot index outside b all
// panic.
func TestSparseVecKernelsPanicOutOfRange(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	n, rows, planes := gridSystem(rng, 4)
	sym, err := AnalyzeSparse(n, rows)
	if err != nil {
		t.Fatal(err)
	}
	re, im := planes(sym)
	ares, aims := blockPlanes(re, im)
	var br BlockRefactorer
	var lus [FreqBlock]SparseLU
	br.RefactorBlock(sym, &lus, &ares, &aims)
	v := make([]float64, n*fbStride)
	for i := range v {
		v[i] = 1
	}
	var dst [FreqBlock]complex128
	calls := map[string]func(){
		"short vector":          func() { br.LowerSolve(sym, v[:len(v)-1], []int32{0}) },
		"long vector":           func() { br.UpperTSolve(sym, append(slices.Clone(v), 0), []int32{0}) },
		"unfactored lanes":      func() { new(BlockRefactorer).LowerSolve(sym, v, nil) },
		"lower reach past n":    func() { br.LowerSolve(sym, slices.Clone(v), []int32{0, int32(n)}) },
		"lower reach negative":  func() { br.LowerSolve(sym, slices.Clone(v), []int32{-1, 0}) },
		"upper reach past n":    func() { br.UpperTSolve(sym, slices.Clone(v), []int32{1, int32(n) + 7, 2}) },
		"upper reach negative":  func() { br.UpperTSolve(sym, slices.Clone(v), []int32{-3}) },
		"dot operands unequal":  func() { DotBlock(&dst, v, v[:fbStride], []int32{0}, false) },
		"dot index past b":      func() { DotBlock(&dst, v, v, []int32{0, int32(n)}, false) },
		"dot index negative":    func() { DotBlock(&dst, v, v, []int32{-1}, false) },
		"packed operand short":  func() { DotBlock(&dst, v[:fbStride], v, []int32{0, 1}, true) },
		"packed index past b":   func() { DotBlock(&dst, v, v[:2*fbStride:2*fbStride], []int32{0, 2}, true) },
		"packed index negative": func() { DotBlock(&dst, v, v, []int32{3, -2}, true) },
	}
	for _, avx := range avxSettings() {
		for name, call := range calls {
			withAVX(avx, func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s (AVX %t): no panic", name, avx)
					}
				}()
				call()
			})
		}
	}
}

// FuzzSparseVecKernels compares LowerSolve, UpperTSolve and DotBlock,
// over interleaved vectors and packed, between the AVX kernels and the
// Go loops under sameBitsOrNaN, on inputs decoded from the fuzz bytes:
// an order n ≤ 12 and an off-diagonal pattern as FuzzRefactorBlock
// decodes them, up to three seeds each for the lower and the upper
// reach, then arbitrary bit patterns, eight bytes per value, for the
// factor lanes, the pivot lanes and every reach position of both
// vectors, zero once the bytes run out. It skips without AVX.
func FuzzSparseVecKernels(f *testing.F) {
	rng := rand.New(rand.NewSource(71))
	for _, n := range []int{1, 3, 7, 12} {
		seed := make([]byte, 1+n*n+8)
		rng.Read(seed)
		seed[0] = byte(n - 1)
		for i := 0; i < 8*n*n; i++ {
			seed = binary.LittleEndian.AppendUint64(seed, math.Float64bits(rng.Float64()-0.5))
		}
		f.Add(seed)
	}
	f.Add([]byte{5, 1, 0, 1, 0, 1, 0, 0, 1, 0, 1, 0, 1}) // lanes all zero: every position skips
	f.Fuzz(func(t *testing.T, data []byte) {
		if !fbAVX {
			t.Skip("no AVX: the Go loops are the only path")
		}
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
		}
		word := func() float64 {
			var b [8]byte
			data = data[copy(b[:], data):]
			return math.Float64frombits(binary.LittleEndian.Uint64(b[:]))
		}
		n := 1 + int(next())%12
		rows := make([][]int, n)
		for i := range rows {
			rows[i] = append(rows[i], i)
			for j := 0; j < n; j++ {
				if j != i && next()&1 == 1 {
					rows[i] = append(rows[i], j)
				}
			}
		}
		sym, err := AnalyzeSparse(n, rows)
		if err != nil {
			t.Fatalf("analyze with a forced diagonal: %v", err)
		}
		seeds := func() []int32 {
			s := make([]int32, 1+int(next())%3)
			for k := range s {
				s[k] = int32(int(next()) % n)
			}
			return s
		}
		var rc Reacher
		ry, _ := rc.LowerReach(sym, nil, seeds())
		rw, _ := rc.UpperReach(sym, nil, seeds())
		var br BlockRefactorer
		for i, lanes := 0, br.Lanes(sym); i < len(lanes); i++ {
			lanes[i] = word()
		}
		br.bd = make([]float64, n*fbStride)
		for i := range br.bd {
			br.bd[i] = word()
		}
		y := make([]float64, n*fbStride)
		w := make([]float64, n*fbStride)
		for _, v := range []struct {
			vec   []float64
			reach []int32
		}{{y, ry}, {w, rw}} {
			for _, i := range v.reach {
				for l := 0; l < fbStride; l++ {
					v.vec[int(i)*fbStride+l] = word()
				}
			}
		}

		goY, avxY := slices.Clone(y), slices.Clone(y)
		withAVX(false, func() { br.LowerSolve(sym, goY, ry) })
		withAVX(true, func() { br.LowerSolve(sym, avxY, ry) })
		sameBitsOrNaN(t, "LowerSolve", goY, avxY)
		goW, avxW := slices.Clone(w), slices.Clone(w)
		withAVX(false, func() { br.UpperTSolve(sym, goW, rw) })
		withAVX(true, func() { br.UpperTSolve(sym, avxW, rw) })
		sameBitsOrNaN(t, "UpperTSolve", goW, avxW)

		pack := make([]float64, (1+len(ry))*fbStride)
		GatherBlock(pack[fbStride:], y, ry)
		for _, dot := range []struct {
			name   string
			a, b   []float64
			idx    []int32
			packed bool
		}{
			{"DotBlock", w, y, rw, false},
			{"DotBlock on solved vectors", goW, goY, ry, false},
			{"DotBlock packed", pack[fbStride:], w, ry, true},
		} {
			var goD, avxD [FreqBlock]complex128
			withAVX(false, func() { DotBlock(&goD, dot.a, dot.b, dot.idx, dot.packed) })
			withAVX(true, func() { DotBlock(&avxD, dot.a, dot.b, dot.idx, dot.packed) })
			sameBitsOrNaN(t, dot.name, dotBits(&goD), dotBits(&avxD))
		}
	})
}
