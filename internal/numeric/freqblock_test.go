package numeric

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// blockPlanes derives FreqBlock distinct value-plane sets from one base
// plane pair, the way an engine sweep does: same pattern, per-frequency
// values (the imaginary part scales like jωC).
func blockPlanes(re, im []float64) (ares, aims [FreqBlock][]float64) {
	for f := 0; f < FreqBlock; f++ {
		ares[f] = make([]float64, len(re))
		aims[f] = make([]float64, len(im))
		s := 1 + 0.35*float64(f)
		for t := range re {
			ares[f][t] = re[t]
			aims[f][t] = im[t] * s
		}
	}
	return ares, aims
}

// loadLanes loads the first real planes of ares/aims into br's lanes for
// sym and pads the rest by copying lane real-1, the way the engine
// stamps a frequency group and pads a short one, and returns the lanes.
func loadLanes(br *BlockRefactorer, sym *SparseSymbolic, ares, aims *[FreqBlock][]float64, real int) []float64 {
	lanes := br.Lanes(sym)
	for f := 0; f < real; f++ {
		for p := range ares[f] {
			lanes[p*fbStride+f], lanes[p*fbStride+FreqBlock+f] = ares[f][p], aims[f][p]
		}
	}
	for f := real; f < FreqBlock; f++ {
		for at := 0; at < len(lanes); at += fbStride {
			lanes[at+f], lanes[at+FreqBlock+f] = lanes[at+real-1], lanes[at+FreqBlock+real-1]
		}
	}
	return lanes
}

// sameBits requires got to hold want's factorization bit for bit:
// pattern, pivot guard, factors and inverse diagonal, the sign of zeros
// included.
func sameBits(t *testing.T, name string, want, got *SparseLU) {
	t.Helper()
	if got.sym != want.sym || math.Float64bits(got.guard2) != math.Float64bits(want.guard2) {
		t.Fatalf("%s: pattern or guard differs: guard %g vs %g", name, got.guard2, want.guard2)
	}
	for _, pair := range [][2][]float64{{want.vre, got.vre}, {want.vim, got.vim}, {want.ire, got.ire}, {want.iim, got.iim}} {
		w, g := pair[0], pair[1]
		if len(w) != len(g) {
			t.Fatalf("%s: %d values vs %d", name, len(g), len(w))
		}
		for i := range w {
			if math.Float64bits(w[i]) != math.Float64bits(g[i]) {
				t.Fatalf("%s: value %d differs: %g vs %g", name, i, g[i], w[i])
			}
		}
	}
}

// checkInPlace pins the in-place entry against RefactorBlock: the first
// real planes of ares/aims are loaded into the lanes and the rest padded
// by lane copies (loadLanes), and after FactorLanes and CopyOut every
// plane must equal RefactorBlock's on the same padded planes bit for bit
// — factors, inverse diagonal, guard — with the same per-plane errors.
// Before CopyOut the walk must leave every plane's values empty.
func checkInPlace(t *testing.T, name string, sym *SparseSymbolic, ares, aims *[FreqBlock][]float64, real int) {
	t.Helper()
	pre, pim := *ares, *aims
	for f := real; f < FreqBlock; f++ {
		pre[f], pim[f] = pre[real-1], pim[real-1]
	}
	var ref BlockRefactorer
	var want [FreqBlock]SparseLU
	wantErrs := ref.RefactorBlock(sym, &want, &pre, &pim)

	var br BlockRefactorer
	loadLanes(&br, sym, ares, aims, real)
	var got [FreqBlock]SparseLU
	errs := br.FactorLanes(sym, &got)
	for f := range got {
		tag := fmt.Sprintf("%s lane %d of %d", name, f, real)
		if fmt.Sprint(errs[f]) != fmt.Sprint(wantErrs[f]) {
			t.Fatalf("%s: in place %v, RefactorBlock %v", tag, errs[f], wantErrs[f])
		}
		if len(got[f].vre) != 0 || len(got[f].ire) != 0 {
			t.Fatalf("%s: walk filled the plane's values before CopyOut", tag)
		}
		br.CopyOut(f, &got[f])
		sameBits(t, tag, &want[f], &got[f])
	}
}

// avxSettings lists the kernel gate settings a test runs under: the
// assembly kernels and the Go loops where the CPU has AVX, the Go loops
// alone where it does not.
func avxSettings() []bool {
	if fbAVX {
		return []bool{true, false}
	}
	return []bool{false}
}

// withAVX runs f with the assembly kernels switched on or off and
// restores the gate afterwards, also when f fails the test.
func withAVX(on bool, f func()) {
	saved := fbAVX
	fbAVX = on
	defer func() { fbAVX = saved }()
	f()
}

// TestRefactorBlockMatchesScalar pins the frequency-blocked contract:
// every plane of a RefactorBlock equals a scalar RefactorReuse of that
// plane — factor for factor, reciprocal for reciprocal — on random
// unsymmetric systems and grid meshes, and the in-place entry the
// engine runs equals RefactorBlock bit for bit, on full groups and on
// short groups padded by lane copies. It runs with the AVX elimination
// kernel and again with the Go loop, the fallback off amd64.
func TestRefactorBlockMatchesScalar(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	type caseSys struct {
		name string
		sym  *SparseSymbolic
		re   []float64
		im   []float64
	}
	var cases []caseSys
	for trial := 0; trial < 25; trial++ {
		n := 1 + rng.Intn(40)
		m, rows := randSparseSystem(rng, n)
		sym, err := AnalyzeSparse(n, rows)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		re, im := planesFor(t, sym, m)
		cases = append(cases, caseSys{fmt.Sprintf("rand-%d", n), sym, re, im})
	}
	for _, k := range []int{3, 8, 16, 23} {
		n, rows, planes := gridSystem(rng, k)
		sym, err := AnalyzeSparse(n, rows)
		if err != nil {
			t.Fatalf("grid analyze: %v", err)
		}
		re, im := planes(sym)
		cases = append(cases, caseSys{fmt.Sprintf("grid-%d", k), sym, re, im})
	}
	for _, avx := range avxSettings() {
		name := "go"
		if avx {
			name = "avx"
		}
		t.Run(name, func(t *testing.T) {
			withAVX(avx, func() {
				var br BlockRefactorer
				for _, cs := range cases {
					ares, aims := blockPlanes(cs.re, cs.im)
					var lus [FreqBlock]SparseLU
					errs := br.RefactorBlock(cs.sym, &lus, &ares, &aims)
					for f := 0; f < FreqBlock; f++ {
						if errs[f] != nil {
							t.Fatalf("%s: blocked plane %d: %v", cs.name, f, errs[f])
						}
						var ref SparseLU
						if err := ref.RefactorReuse(cs.sym, ares[f], aims[f]); err != nil {
							t.Fatalf("%s: scalar plane %d: %v", cs.name, f, err)
						}
						compareFactors(t, fmt.Sprintf("%s plane %d", cs.name, f), &ref, &lus[f])
					}
					checkInPlace(t, cs.name, cs.sym, &ares, &aims, FreqBlock)
					checkInPlace(t, cs.name, cs.sym, &ares, &aims, 3)
				}
			})
		})
	}
}

// TestRefactorBlockIndependentFailure pins that planes fail alone: a
// dead plane (all-zero), a singular plane (zeroed row) and a plane whose
// pivot falls below the guard (a row scaled by 1e-9) report their own
// errors, at the scalar walk's row, while the remaining planes still
// match the scalar sweep — and the in-place entry matches RefactorBlock
// bit for bit on each, a short group padded with a dead lane included.
func TestRefactorBlockIndependentFailure(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	n, rows, planes := gridSystem(rng, 9)
	sym, err := AnalyzeSparse(n, rows)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	re, im := planes(sym)
	ares, aims := blockPlanes(re, im)
	// Plane 1: all-zero matrix. Plane 3: zero out one structural row.
	for t1 := range ares[1] {
		ares[1][t1], aims[1][t1] = 0, 0
	}
	deadRow := n / 2
	for t1 := sym.rowStart[deadRow]; t1 < sym.rowStart[deadRow+1]; t1++ {
		ares[3][t1], aims[3][t1] = 0, 0
	}
	var br BlockRefactorer
	var lus [FreqBlock]SparseLU
	errs := br.RefactorBlock(sym, &lus, &ares, &aims)
	if !errors.Is(errs[1], ErrSingular) {
		t.Fatalf("all-zero plane: got %v, want ErrSingular", errs[1])
	}
	if !errors.Is(errs[3], ErrSingular) {
		t.Fatalf("zeroed-row plane: got %v, want ErrSingular", errs[3])
	}
	for _, f := range []int{0, 2} {
		if errs[f] != nil {
			t.Fatalf("healthy plane %d: %v", f, errs[f])
		}
		var ref SparseLU
		if err := ref.RefactorReuse(sym, ares[f], aims[f]); err != nil {
			t.Fatalf("scalar plane %d: %v", f, err)
		}
		compareFactors(t, fmt.Sprintf("surviving plane %d", f), &ref, &lus[f])
	}
	// The failing plane's error row must match the scalar walk's.
	var ref3 SparseLU
	err3 := ref3.RefactorReuse(sym, ares[3], aims[3])
	if err3 == nil || errs[3] == nil || err3.Error() != errs[3].Error() {
		t.Fatalf("failure parity: scalar %v vs blocked %v", err3, errs[3])
	}
	checkInPlace(t, "dead and zeroed-row planes", sym, &ares, &aims, FreqBlock)
	checkInPlace(t, "short group ending on the dead plane", sym, &ares, &aims, 2)

	// Plane 2: one row scaled far below the others, so its pivot is
	// nonzero but under the static-pivot guard.
	aresG, aimsG := blockPlanes(re, im)
	for t1 := sym.rowStart[deadRow]; t1 < sym.rowStart[deadRow+1]; t1++ {
		aresG[2][t1] *= 1e-9
		aimsG[2][t1] *= 1e-9
	}
	var lusG [FreqBlock]SparseLU
	errsG := br.RefactorBlock(sym, &lusG, &aresG, &aimsG)
	var refG SparseLU
	errG := refG.RefactorReuse(sym, aresG[2], aimsG[2])
	if errG == nil || !strings.Contains(errG.Error(), "below static-pivot guard") {
		t.Fatalf("scaled-row plane: scalar walk %v, want a below-guard pivot", errG)
	}
	if errsG[2] == nil || errsG[2].Error() != errG.Error() {
		t.Fatalf("below-guard parity: scalar %v vs blocked %v", errG, errsG[2])
	}
	for _, f := range []int{0, 1, 3} {
		if errsG[f] != nil {
			t.Fatalf("healthy plane %d beside a below-guard plane: %v", f, errsG[f])
		}
	}
	checkInPlace(t, "below-guard plane", sym, &aresG, &aimsG, FreqBlock)
	// A fresh refactorization through the same scratch still matches —
	// the failed walk must leave the interleaved work row clean.
	ares2, aims2 := blockPlanes(re, im)
	var lus2 [FreqBlock]SparseLU
	errs2 := br.RefactorBlock(sym, &lus2, &ares2, &aims2)
	for f := 0; f < FreqBlock; f++ {
		if errs2[f] != nil {
			t.Fatalf("post-failure plane %d: %v", f, errs2[f])
		}
		var ref SparseLU
		if err := ref.RefactorReuse(sym, ares2[f], aims2[f]); err != nil {
			t.Fatalf("post-failure scalar plane %d: %v", f, err)
		}
		compareFactors(t, fmt.Sprintf("post-failure plane %d", f), &ref, &lus2[f])
	}
}

// TestUncopiedPlaneFailsLoudly pins FactorLanes' guard against stale
// factors: a SparseLU that held a full factorization and is then
// prepared by a new walk but never copied out must not serve the old
// factors — a partial refactorization from it is refused and a solve
// panics — and CopyOut makes it whole again.
func TestUncopiedPlaneFailsLoudly(t *testing.T) {
	rng := rand.New(rand.NewSource(53))
	n, rows, planes := gridSystem(rng, 6)
	sym, err := AnalyzeSparse(n, rows)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	re, im := planes(sym)
	ares, aims := blockPlanes(re, im)
	var br BlockRefactorer
	var lus [FreqBlock]SparseLU
	if errs := br.RefactorBlock(sym, &lus, &ares, &aims); errs[0] != nil {
		t.Fatalf("refactor: %v", errs[0])
	}
	loadLanes(&br, sym, &ares, &aims, FreqBlock)
	if errs := br.FactorLanes(sym, &lus); errs[0] != nil {
		t.Fatalf("factor lanes: %v", errs[0])
	}
	var patched SparseLU
	if _, err := patched.PartialRefactor(&lus[0], re, im, []int{0}); !errors.Is(err, ErrDimension) {
		t.Fatalf("partial refactor from an uncopied plane: err = %v, want ErrDimension", err)
	}
	b := make([]complex128, n)
	b[0] = 1
	func() {
		defer func() {
			if recover() == nil {
				t.Fatalf("solve over an uncopied plane did not panic")
			}
		}()
		_ = lus[0].SolveInto(b, b)
	}()
	br.CopyOut(0, &lus[0])
	if _, err := patched.PartialRefactor(&lus[0], re, im, []int{0}); err != nil {
		t.Fatalf("partial refactor after CopyOut: %v", err)
	}
}

// FuzzRefactorBlock compares the in-place walk, after CopyOut, with the
// scalar RefactorReuse of every plane, as TestRefactorBlockMatchesScalar
// does, on systems decoded from the fuzz bytes: an order n ≤ 12, an
// off-diagonal pattern (one byte per position, odd = structural) with
// the diagonal forced, and four planes of finite values, multiples of
// 1/16 in [-8, 8), so exact zeros and cancellations are common. Each
// plane must fail at the scalar walk's first failing row with its error,
// or succeed with equal factors up to the sign of exact zeros and the
// same guard. Inputs whose scalar factors overflow are skipped: the
// contract is for finite arithmetic, and where the scalar walk skips a
// zero multiplier the blocked walk multiplies through it, and 0·Inf is
// NaN.
func FuzzRefactorBlock(f *testing.F) {
	rng := rand.New(rand.NewSource(59))
	for _, n := range []int{1, 2, 5, 12} {
		seed := make([]byte, 1+n*n+8*n*n)
		rng.Read(seed)
		seed[0] = byte(n - 1)
		f.Add(seed)
	}
	f.Add([]byte{3, 1, 0, 0, 1, 0, 0}) // mostly zero values: singular planes
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() byte {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return b
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
		var ares, aims [FreqBlock][]float64
		for p := 0; p < FreqBlock; p++ {
			ares[p] = make([]float64, sym.LUNNZ())
			aims[p] = make([]float64, sym.LUNNZ())
			for i, r := range rows {
				for _, j := range r {
					at := sym.ValueIndex(i, j)
					ares[p][at] = float64(int8(next())) / 16
					aims[p][at] = float64(int8(next())) / 16
				}
			}
		}
		var refs [FreqBlock]SparseLU
		var refErrs [FreqBlock]error
		for p := range refs {
			refErrs[p] = refs[p].RefactorReuse(sym, ares[p], aims[p])
			for _, v := range [][]float64{refs[p].vre, refs[p].vim, refs[p].ire, refs[p].iim} {
				for _, x := range v {
					if math.IsInf(x, 0) || math.IsNaN(x) {
						t.Skip("scalar factors overflow")
					}
				}
			}
		}
		var br BlockRefactorer
		loadLanes(&br, sym, &ares, &aims, FreqBlock)
		var lus [FreqBlock]SparseLU
		errs := br.FactorLanes(sym, &lus)
		for p := range lus {
			br.CopyOut(p, &lus[p])
			if fmt.Sprint(errs[p]) != fmt.Sprint(refErrs[p]) {
				t.Fatalf("plane %d: in place %v, scalar %v", p, errs[p], refErrs[p])
			}
			if refErrs[p] != nil {
				continue
			}
			if lus[p].guard2 != refs[p].guard2 {
				t.Fatalf("plane %d: guard %g, scalar %g", p, lus[p].guard2, refs[p].guard2)
			}
			compareFactors(t, fmt.Sprintf("plane %d", p), &refs[p], &lus[p])
		}
	})
}

// TestRefactorBlockAllocationFree pins the steady-state contract: after
// a warm-up call, RefactorBlock with the same receiver and LUs does not
// allocate.
func TestRefactorBlockAllocationFree(t *testing.T) {
	rng := rand.New(rand.NewSource(47))
	_, rows, planes := gridSystem(rng, 16)
	sym, err := AnalyzeSparse(len(rows), rows)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	re, im := planes(sym)
	ares, aims := blockPlanes(re, im)
	var br BlockRefactorer
	var lus [FreqBlock]SparseLU
	if errs := br.RefactorBlock(sym, &lus, &ares, &aims); errs[0] != nil {
		t.Fatalf("warm-up: %v", errs[0])
	}
	avg := testing.AllocsPerRun(20, func() {
		if errs := br.RefactorBlock(sym, &lus, &ares, &aims); errs[0] != nil {
			t.Fatalf("refactor: %v", errs[0])
		}
	})
	if avg != 0 {
		t.Fatalf("steady-state RefactorBlock allocates %.1f/run, want 0", avg)
	}
}

// BenchmarkRefactorBlock reports the per-frequency numeric-phase cost of
// the blocked walk next to the scalar walk on grid meshes (one blocked
// op factors FreqBlock planes; divide by FreqBlock to compare).
func BenchmarkRefactorBlock(b *testing.B) {
	for _, k := range []int{16, 32, 45, 64} {
		rng := rand.New(rand.NewSource(int64(k)))
		_, rows, planes := gridSystem(rng, k)
		sym, err := AnalyzeSparse(len(rows), rows)
		if err != nil {
			b.Fatalf("analyze: %v", err)
		}
		re, im := planes(sym)
		ares, aims := blockPlanes(re, im)
		b.Run(fmt.Sprintf("scalar/n=%d", len(rows)), func(b *testing.B) {
			var f SparseLU
			for i := 0; i < b.N; i++ {
				if err := f.RefactorReuse(sym, ares[i%FreqBlock], aims[i%FreqBlock]); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(fmt.Sprintf("block4/n=%d", len(rows)), func(b *testing.B) {
			var br BlockRefactorer
			var lus [FreqBlock]SparseLU
			for i := 0; i < b.N; i++ {
				if errs := br.RefactorBlock(sym, &lus, &ares, &aims); errs[0] != nil {
					b.Fatal(errs[0])
				}
			}
		})
	}
}
