// AVX kernels over the frequency-blocked interleaved lanes: the row
// elimination of the blocked refactorization walk (fbEliminateRowAVX,
// freqblock.go) and the sparse-vector half-solves and dots that read its
// factors (fbLowerSolveAVX, fbUpperTSolveAVX, fbDotBlockAVX,
// sparsevec.go).
//
// One 256-bit lane-set holds the four frequency planes of a matrix
// position (re quad, then im quad — fbStride floats). VMULPD/VADDPD/
// VSUBPD round each lane exactly like the scalar MULSD/ADDSD/SUBSD
// sequence in the pure-Go loops, in the same order, so each kernel
// returns the bits of its Go loop (up to NaN payloads; see
// sparsevec.go). No FMA: fused rounding would diverge from the Go loops.

#include "textflag.h"

// func fbEliminateRowAVX(bw, bv, bd *float64, cols, dp, rs *int, lo, dpi int)
//
// The full ascending elimination of one row over its L pattern — the
// per-pivot multiplier computation plus the update sweep of fbUpdateAVX,
// without a Go call per pivot:
//
//   for t in [lo, dpi):
//     k = cols[t]
//     a = bw[k*8 ..]                   (work-row quads at pivot k)
//     if every plane of a is ±0: continue   (the scalar walk's skip)
//     r = bd[k*8 ..]                   (pivot reciprocal quads)
//     m.re = a.re*r.re - a.im*r.im; m.im = a.re*r.im + a.im*r.re
//     bw[k*8 ..] = m
//     for u in [dp[k]+1, rs[k+1]): update bw[cols[u]*8 ..] by bv[u*8 ..]
TEXT ·fbEliminateRowAVX(SB), NOSPLIT, $0-64
	MOVQ bw+0(FP), DI
	MOVQ bv+8(FP), SI
	MOVQ bd+16(FP), R8
	MOVQ cols+24(FP), DX
	MOVQ dp+32(FP), R9
	MOVQ rs+40(FP), R10
	MOVQ lo+48(FP), R11
	MOVQ dpi+56(FP), R12
	// Y7 = sign-bit mask complement for the ±0 test.
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ AX, X7
	VMOVDDUP X7, X7
	VINSERTF128 $1, X7, Y7, Y7
	CMPQ R11, R12
	JGE rowdone
rowpivot:
	MOVQ (DX)(R11*8), BX  // k = cols[t]
	MOVQ BX, R13
	SHLQ $6, R13          // byte offset of position k
	VMOVUPD (DI)(R13*1), Y0   // a.re
	VMOVUPD 32(DI)(R13*1), Y1 // a.im
	VORPD Y1, Y0, Y2
	VANDPD Y7, Y2, Y2     // drop sign bits: ±0 counts as zero
	VPTEST Y2, Y2
	JNE rowactive
	ADDQ $1, R11
	CMPQ R11, R12
	JLT rowpivot
	JMP rowdone
rowactive:
	VMOVUPD (R8)(R13*1), Y4   // r.re
	VMOVUPD 32(R8)(R13*1), Y5 // r.im
	VMULPD Y4, Y0, Y2     // a.re*r.re
	VMULPD Y5, Y1, Y3     // a.im*r.im
	VSUBPD Y3, Y2, Y2     // m.re
	VMULPD Y5, Y0, Y6     // a.re*r.im
	VMULPD Y4, Y1, Y3     // a.im*r.re
	VADDPD Y3, Y6, Y3     // m.im
	VMOVUPD Y2, (DI)(R13*1)
	VMOVUPD Y3, 32(DI)(R13*1)
	VMOVAPD Y2, Y4        // m.re
	VMOVAPD Y3, Y5        // m.im
	// Update sweep over U entries [dp[k]+1, rs[k+1]).
	MOVQ (R9)(BX*8), CX   // dp[k]
	ADDQ $1, CX
	MOVQ 8(R10)(BX*8), R14 // rs[k+1]
	CMPQ CX, R14
	JGE rownext
	MOVQ CX, R15
	SHLQ $6, R15
	LEAQ (SI)(R15*1), R15 // &bv[u*8]
rowupd:
	MOVQ (DX)(CX*8), BX   // c = cols[u]
	SHLQ $6, BX
	VMOVUPD (R15), Y0     // u.re
	VMOVUPD 32(R15), Y1   // u.im
	VMULPD Y0, Y4, Y2
	VMULPD Y1, Y5, Y3
	VSUBPD Y3, Y2, Y2
	VMOVUPD (DI)(BX*1), Y6
	VSUBPD Y2, Y6, Y6
	VMOVUPD Y6, (DI)(BX*1)
	VMULPD Y1, Y4, Y2
	VMULPD Y0, Y5, Y3
	VADDPD Y3, Y2, Y2
	VMOVUPD 32(DI)(BX*1), Y6
	VSUBPD Y2, Y6, Y6
	VMOVUPD Y6, 32(DI)(BX*1)
	ADDQ $64, R15
	ADDQ $1, CX
	CMPQ CX, R14
	JLT rowupd
rownext:
	ADDQ $1, R11
	CMPQ R11, R12
	JLT rowpivot
rowdone:
	VZEROUPPER
	RET

// The sparse-vector kernels check every index their caller hands them
// (a reach or dot index) with one unsigned compare against the bound
// they were given, and stop at the first one out of range, returning
// how many they finished; the Go wrapper panics on a short count, as
// the Go loop's bounds check would, so an unsorted reach cannot reach
// outside the vectors either. The wrappers check the slice lengths, and
// indices read from the pattern itself (L entries, cols, dp, rs) are in
// range by construction.

// func fbLowerSolveAVX(y, bv []float64, start []int32, ent []lowerEntry, reach []int32, n int) int
//
//   for r, k in reach:
//     if k ∉ [0, n): return r
//     a = y[k*8 ..]
//     if every plane of a is ±0: continue
//     for e in ent[start[k]:start[k+1]]:
//       m = bv[e.pos*8 ..]
//       y[e.row*8 ..].re -= m.re*a.re - m.im*a.im
//       y[e.row*8 ..].im -= m.re*a.im + m.im*a.re
//   return len(reach)
TEXT ·fbLowerSolveAVX(SB), NOSPLIT, $0-136
	MOVQ y_base+0(FP), DI
	MOVQ bv_base+24(FP), SI
	MOVQ start_base+48(FP), R8
	MOVQ ent_base+72(FP), R9
	MOVQ reach_base+96(FP), R10
	MOVQ reach_len+104(FP), R12
	MOVQ n+120(FP), R13
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ AX, X7
	VMOVDDUP X7, X7
	VINSERTF128 $1, X7, Y7, Y7
	XORQ R11, R11
	CMPQ R11, R12
	JGE lsdone
lspivot:
	MOVLQSX (R10)(R11*4), BX // k = reach[r]
	CMPQ BX, R13
	JAE lsdone               // k < 0 or k >= n
	MOVQ BX, R14
	SHLQ $6, R14
	VMOVUPD (DI)(R14*1), Y0   // a.re
	VMOVUPD 32(DI)(R14*1), Y1 // a.im
	VORPD Y1, Y0, Y2
	VANDPD Y7, Y2, Y2
	VPTEST Y2, Y2
	JE lsnext                 // every plane ±0: the Go loop's skip
	MOVLQSX (R8)(BX*4), CX    // start[k]
	MOVLQSX 4(R8)(BX*4), DX   // start[k+1]
	CMPQ CX, DX
	JGE lsnext
lsent:
	MOVLQSX 4(R9)(CX*8), R15 // e.pos
	SHLQ $6, R15
	MOVLQSX (R9)(CX*8), AX   // e.row
	SHLQ $6, AX
	VMOVUPD (SI)(R15*1), Y4   // m.re
	VMOVUPD 32(SI)(R15*1), Y5 // m.im
	VMULPD Y0, Y4, Y2         // m.re*a.re
	VMULPD Y1, Y5, Y3         // m.im*a.im
	VSUBPD Y3, Y2, Y2
	VMOVUPD (DI)(AX*1), Y6
	VSUBPD Y2, Y6, Y6
	VMOVUPD Y6, (DI)(AX*1)
	VMULPD Y1, Y4, Y2         // m.re*a.im
	VMULPD Y0, Y5, Y3         // m.im*a.re
	VADDPD Y3, Y2, Y2
	VMOVUPD 32(DI)(AX*1), Y6
	VSUBPD Y2, Y6, Y6
	VMOVUPD Y6, 32(DI)(AX*1)
	ADDQ $1, CX
	CMPQ CX, DX
	JLT lsent
lsnext:
	ADDQ $1, R11
	CMPQ R11, R12
	JLT lspivot
lsdone:
	MOVQ R11, ret+128(FP)
	VZEROUPPER
	RET

// func fbUpperTSolveAVX(w, bv, bd []float64, cols, dp, rs []int, reach []int32, n int) int
//
//   for r, j in reach:
//     if j ∉ [0, n): return r
//     if every plane of w[j*8 ..] is ±0: continue
//     d = bd[j*8 ..]
//     x.re = w.re*d.re - w.im*d.im; x.im = w.re*d.im + w.im*d.re
//     w[j*8 ..] = x
//     for t in [dp[j]+1, rs[j+1]):
//       m = bv[t*8 ..]
//       w[cols[t]*8 ..].re -= m.re*x.re - m.im*x.im
//       w[cols[t]*8 ..].im -= m.re*x.im + m.im*x.re
//   return len(reach)
TEXT ·fbUpperTSolveAVX(SB), NOSPLIT, $0-184
	MOVQ w_base+0(FP), DI
	MOVQ bv_base+24(FP), SI
	MOVQ bd_base+48(FP), R8
	MOVQ cols_base+72(FP), DX
	MOVQ dp_base+96(FP), R9
	MOVQ rs_base+120(FP), R10
	MOVQ reach_base+144(FP), R11
	MOVQ reach_len+152(FP), R13
	MOVQ n+168(FP), R14
	MOVQ $0x7FFFFFFFFFFFFFFF, AX
	VMOVQ AX, X7
	VMOVDDUP X7, X7
	VINSERTF128 $1, X7, Y7, Y7
	XORQ R12, R12
	CMPQ R12, R13
	JGE usdone
uspivot:
	MOVLQSX (R11)(R12*4), BX // j = reach[r]
	CMPQ BX, R14
	JAE usdone               // j < 0 or j >= n
	MOVQ BX, AX
	SHLQ $6, AX
	VMOVUPD (DI)(AX*1), Y0   // w.re
	VMOVUPD 32(DI)(AX*1), Y1 // w.im
	VORPD Y1, Y0, Y2
	VANDPD Y7, Y2, Y2
	VPTEST Y2, Y2
	JE usnext                // every plane ±0: the Go loop's skip
	VMOVUPD (R8)(AX*1), Y4   // d.re
	VMOVUPD 32(R8)(AX*1), Y5 // d.im
	VMULPD Y4, Y0, Y2        // w.re*d.re
	VMULPD Y5, Y1, Y3        // w.im*d.im
	VSUBPD Y3, Y2, Y2        // x.re
	VMULPD Y5, Y0, Y6        // w.re*d.im
	VMULPD Y4, Y1, Y3        // w.im*d.re
	VADDPD Y3, Y6, Y3        // x.im
	VMOVUPD Y2, (DI)(AX*1)
	VMOVUPD Y3, 32(DI)(AX*1)
	VMOVAPD Y2, Y4           // x.re
	VMOVAPD Y3, Y5           // x.im
	MOVQ (R9)(BX*8), CX      // dp[j]
	ADDQ $1, CX
	MOVQ 8(R10)(BX*8), R15   // rs[j+1]
	CMPQ CX, R15
	JGE usnext
	MOVQ CX, AX
	SHLQ $6, AX
	ADDQ SI, AX              // &bv[t*8]
usupd:
	MOVQ (DX)(CX*8), BX      // c = cols[t]
	SHLQ $6, BX
	VMOVUPD (AX), Y0         // m.re
	VMOVUPD 32(AX), Y1       // m.im
	VMULPD Y4, Y0, Y2        // m.re*x.re
	VMULPD Y5, Y1, Y3        // m.im*x.im
	VSUBPD Y3, Y2, Y2
	VMOVUPD (DI)(BX*1), Y6
	VSUBPD Y2, Y6, Y6
	VMOVUPD Y6, (DI)(BX*1)
	VMULPD Y5, Y0, Y2        // m.re*x.im
	VMULPD Y4, Y1, Y3        // m.im*x.re
	VADDPD Y3, Y2, Y2
	VMOVUPD 32(DI)(BX*1), Y6
	VSUBPD Y2, Y6, Y6
	VMOVUPD Y6, 32(DI)(BX*1)
	ADDQ $64, AX
	ADDQ $1, CX
	CMPQ CX, R15
	JLT usupd
usnext:
	ADDQ $1, R12
	CMPQ R12, R13
	JLT uspivot
usdone:
	MOVQ R12, ret+176(FP)
	VZEROUPPER
	RET

// dotStep accumulates one position's products into the sums:
// s.re += x.re*y.re - x.im*y.im; s.im += x.re*y.im + x.im*y.re, with
// x in Y0/Y1, y in Y2/Y3 and s in Y8/Y9.
#define dotStep \
	VMULPD Y2, Y0, Y4 \
	VMULPD Y3, Y1, Y5 \
	VSUBPD Y5, Y4, Y4 \
	VADDPD Y4, Y8, Y8 \
	VMULPD Y3, Y0, Y4 \
	VMULPD Y2, Y1, Y5 \
	VADDPD Y5, Y4, Y4 \
	VADDPD Y4, Y9, Y9

// func fbDotBlockAVX(dst *[FreqBlock]complex128, a, b []float64, idx []int32, nb int, packed bool) int
//
//   s = 0
//   for k, i in idx:
//     if i ∉ [0, nb): break
//     x = packed ? a[k*8 ..] : a[i*8 ..]; y = b[i*8 ..]
//     s.re += x.re*y.re - x.im*y.im; s.im += x.re*y.im + x.im*y.re
//   dst[f] = complex(s.re[f], s.im[f]); return the positions summed
TEXT ·fbDotBlockAVX(SB), NOSPLIT, $0-104
	MOVQ dst+0(FP), DI
	MOVQ a_base+8(FP), SI
	MOVQ b_base+32(FP), R8
	MOVQ idx_base+56(FP), R9
	MOVQ idx_len+64(FP), R10
	MOVQ nb+80(FP), R11
	MOVBLZX packed+88(FP), AX
	VXORPD Y8, Y8, Y8 // s.re
	VXORPD Y9, Y9, Y9 // s.im
	XORQ CX, CX
	CMPQ CX, R10
	JGE dotstore
	TESTQ AX, AX
	JNE dotpacked
dotloop:
	MOVLQSX (R9)(CX*4), BX // i = idx[k]
	CMPQ BX, R11
	JAE dotstore           // i < 0 or i >= nb
	SHLQ $6, BX
	VMOVUPD (SI)(BX*1), Y0
	VMOVUPD 32(SI)(BX*1), Y1
	VMOVUPD (R8)(BX*1), Y2
	VMOVUPD 32(R8)(BX*1), Y3
	dotStep
	ADDQ $1, CX
	CMPQ CX, R10
	JLT dotloop
	JMP dotstore
dotpacked:
	MOVQ SI, DX // &a[k*8]
dotploop:
	MOVLQSX (R9)(CX*4), BX
	CMPQ BX, R11
	JAE dotstore
	SHLQ $6, BX
	VMOVUPD (DX), Y0
	VMOVUPD 32(DX), Y1
	VMOVUPD (R8)(BX*1), Y2
	VMOVUPD 32(R8)(BX*1), Y3
	dotStep
	ADDQ $64, DX
	ADDQ $1, CX
	CMPQ CX, R10
	JLT dotploop
dotstore:
	// Interleave the re and im quads into four complex128s.
	VUNPCKLPD Y9, Y8, Y0 // s.re[0] s.im[0] s.re[2] s.im[2]
	VUNPCKHPD Y9, Y8, Y1 // s.re[1] s.im[1] s.re[3] s.im[3]
	VMOVUPD X0, (DI)
	VMOVUPD X1, 16(DI)
	VEXTRACTF128 $1, Y0, 32(DI)
	VEXTRACTF128 $1, Y1, 48(DI)
	MOVQ CX, ret+96(FP)
	VZEROUPPER
	RET

// func fbCPUID1() uint32 — ECX of CPUID leaf 1 (feature flags).
TEXT ·fbCPUID1(SB), NOSPLIT, $0-4
	MOVL $1, AX
	XORL CX, CX
	CPUID
	MOVL CX, ret+0(FP)
	RET

// func fbXGETBV() uint32 — low word of XCR0 (OS-enabled state).
TEXT ·fbXGETBV(SB), NOSPLIT, $0-4
	XORL CX, CX
	XGETBV
	MOVL AX, ret+0(FP)
	RET
