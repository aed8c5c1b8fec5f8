//go:build amd64

package numeric

//go:noescape
func fbEliminateRowAVX(bw, bv, bd *float64, cols, dp, rs *int, lo, dpi int)

//go:noescape
func fbLowerSolveAVX(y, bv []float64, start []int32, ent []lowerEntry, reach []int32, n int) int

//go:noescape
func fbUpperTSolveAVX(w, bv, bd []float64, cols, dp, rs []int, reach []int32, n int) int

//go:noescape
func fbDotBlockAVX(dst *[FreqBlock]complex128, a, b []float64, idx []int32, nb int, packed bool) int

func fbCPUID1() uint32

func fbXGETBV() uint32

// fbAVX gates the assembly kernels: the CPU must report AVX and OSXSAVE,
// and the OS must have enabled XMM+YMM state (XCR0 bits 1 and 2). The
// pure-Go loops are the fallback everywhere else and are bit-identical.
var fbAVX = func() bool {
	const osxsave, avx = 1 << 27, 1 << 28
	cx := fbCPUID1()
	if cx&osxsave == 0 || cx&avx == 0 {
		return false
	}
	return fbXGETBV()&6 == 6
}()
