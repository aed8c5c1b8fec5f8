//go:build !amd64

package numeric

var fbAVX = false

// The assembly kernels are never called when fbAVX is false; these
// stubs keep non-amd64 builds linking.

func fbEliminateRowAVX(bw, bv, bd *float64, cols, dp, rs *int, lo, dpi int) {
	panic("numeric: fbEliminateRowAVX without AVX support")
}

func fbLowerSolveAVX(y, bv []float64, start []int32, ent []lowerEntry, reach []int32, n int) int {
	panic("numeric: fbLowerSolveAVX without AVX support")
}

func fbUpperTSolveAVX(w, bv, bd []float64, cols, dp, rs []int, reach []int32, n int) int {
	panic("numeric: fbUpperTSolveAVX without AVX support")
}

func fbDotBlockAVX(dst *[FreqBlock]complex128, a, b []float64, idx []int32, nb int, packed bool) int {
	panic("numeric: fbDotBlockAVX without AVX support")
}
