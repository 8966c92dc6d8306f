// AVX micro-kernels for the float64 GEMMs (gemm.go) and the k-means
// nearest-centroid search (nearest.go), selected at init by
// simd_amd64.go through the same CPUID / TARGAD_NOSIMD / noasm seam as
// the float32 kernels.
//
// Bitwise contract: every output element is ONE lane of a YMM register
// that starts at +0 and takes one unfused VMULPD then one VADDPD per
// step of the accumulation index, in increasing order — exactly the
// rounding sequence of the scalar Go chain `c += a*b` (and of
// `d := x-c; s += d*d`). No lane ever reads another lane, so the vector
// width changes throughput, never the result. FMA is deliberately not
// used: a fused multiply-add rounds once where the Go chain rounds
// twice.
//
// Column tails (width mod 8) run the same loop with VMASKMOVPD loads and
// stores; masked-off lanes compute garbage that is never stored.

//go:build !noasm

#include "textflag.h"

// tailmask<>: eight all-ones quadwords then eight zero quadwords. The
// eight lanes starting at quadword 8-r hold r leading all-ones lanes,
// the VMASKMOVPD mask for an r-column tail.
DATA tailmask<>+0(SB)/8, $-1
DATA tailmask<>+8(SB)/8, $-1
DATA tailmask<>+16(SB)/8, $-1
DATA tailmask<>+24(SB)/8, $-1
DATA tailmask<>+32(SB)/8, $-1
DATA tailmask<>+40(SB)/8, $-1
DATA tailmask<>+48(SB)/8, $-1
DATA tailmask<>+56(SB)/8, $-1
DATA tailmask<>+64(SB)/8, $0
DATA tailmask<>+72(SB)/8, $0
DATA tailmask<>+80(SB)/8, $0
DATA tailmask<>+88(SB)/8, $0
DATA tailmask<>+96(SB)/8, $0
DATA tailmask<>+104(SB)/8, $0
DATA tailmask<>+112(SB)/8, $0
DATA tailmask<>+120(SB)/8, $0
GLOBL tailmask<>(SB), RODATA|NOPTR, $128

// STEP4 multiplies the two B halves in Y8/Y9 by the broadcast A
// element at addr and adds the products into accumulators lo/hi.
#define STEP4(addr, lo, hi) \
	VBROADCASTSD addr, Y10; \
	VMULPD       Y8, Y10, Y11; \
	VADDPD       Y11, lo, lo; \
	VMULPD       Y9, Y10, Y12; \
	VADDPD       Y12, hi, hi

// func gemm4f64(a *float64, ars, aks int, b *float64, ldb int, c *float64, ldc, k, n int, acc bool)
//
// C[0:4, 0:n] = A[0:4, 0:k] · B[0:k, 0:n] (or += when acc), where A
// element (i, l) is at a[i·ars + l·aks] — (ars, aks) = (lda, 1) for
// a·b and (1, lda) for aᵀ·b, so neither needs packing — and B and C
// are row-major with row strides ldb and ldc. Each 8-column block
// keeps a 4×8 C tile in Y0..Y7 for the whole k loop; in acc mode the
// finished chain is added to C once, matching the Go kernels'
// `dst += chain`.
TEXT ·gemm4f64(SB), NOSPLIT, $0-73
	MOVQ a+0(FP), SI
	MOVQ ars+8(FP), R8
	MOVQ aks+16(FP), R9
	MOVQ b+24(FP), DI
	MOVQ ldb+32(FP), R11
	MOVQ c+40(FP), DX
	MOVQ ldc+48(FP), R14
	MOVQ k+56(FP), CX
	MOVQ n+64(FP), BX

	SHLQ $3, R8                // strides in bytes
	SHLQ $3, R9
	SHLQ $3, R11
	SHLQ $3, R14
	LEAQ (R8)(R8*2), R10       // 3·ars bytes

block4:
	CMPQ BX, $8
	JLT  tail4
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R12
	MOVQ   DI, R13
	MOVQ   CX, AX

loop4:
	VMOVUPD (R13), Y8          // B[l, j:j+4]
	VMOVUPD 32(R13), Y9        // B[l, j+4:j+8]
	STEP4((R12), Y0, Y1)
	STEP4((R12)(R8*1), Y2, Y3)
	STEP4((R12)(R8*2), Y4, Y5)
	STEP4((R12)(R10*1), Y6, Y7)
	ADDQ    R9, R12
	ADDQ    R11, R13
	DECQ    AX
	JNZ     loop4

	MOVQ DX, R12
	CMPB acc+72(FP), $0
	JEQ  store4
	VMOVUPD (R12), Y8
	VADDPD  Y0, Y8, Y0
	VMOVUPD 32(R12), Y8
	VADDPD  Y1, Y8, Y1
	ADDQ    R14, R12
	VMOVUPD (R12), Y8
	VADDPD  Y2, Y8, Y2
	VMOVUPD 32(R12), Y8
	VADDPD  Y3, Y8, Y3
	ADDQ    R14, R12
	VMOVUPD (R12), Y8
	VADDPD  Y4, Y8, Y4
	VMOVUPD 32(R12), Y8
	VADDPD  Y5, Y8, Y5
	ADDQ    R14, R12
	VMOVUPD (R12), Y8
	VADDPD  Y6, Y8, Y6
	VMOVUPD 32(R12), Y8
	VADDPD  Y7, Y8, Y7
	MOVQ    DX, R12

store4:
	VMOVUPD Y0, (R12)
	VMOVUPD Y1, 32(R12)
	ADDQ    R14, R12
	VMOVUPD Y2, (R12)
	VMOVUPD Y3, 32(R12)
	ADDQ    R14, R12
	VMOVUPD Y4, (R12)
	VMOVUPD Y5, 32(R12)
	ADDQ    R14, R12
	VMOVUPD Y6, (R12)
	VMOVUPD Y7, 32(R12)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, BX
	JMP     block4

tail4:
	TESTQ BX, BX
	JZ    done4
	MOVQ  $8, AX
	SUBQ  BX, AX
	LEAQ  tailmask<>(SB), R12
	VMOVDQU (R12)(AX*8), Y14   // lanes j..j+3
	VMOVDQU 32(R12)(AX*8), Y15 // lanes j+4..j+7
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7
	MOVQ   SI, R12
	MOVQ   DI, R13
	MOVQ   CX, AX

tloop4:
	VMASKMOVPD (R13), Y14, Y8
	VMASKMOVPD 32(R13), Y15, Y9
	STEP4((R12), Y0, Y1)
	STEP4((R12)(R8*1), Y2, Y3)
	STEP4((R12)(R8*2), Y4, Y5)
	STEP4((R12)(R10*1), Y6, Y7)
	ADDQ       R9, R12
	ADDQ       R11, R13
	DECQ       AX
	JNZ        tloop4

	MOVQ DX, R12
	CMPB acc+72(FP), $0
	JEQ  tstore4
	VMASKMOVPD (R12), Y14, Y8
	VADDPD     Y0, Y8, Y0
	VMASKMOVPD 32(R12), Y15, Y8
	VADDPD     Y1, Y8, Y1
	ADDQ       R14, R12
	VMASKMOVPD (R12), Y14, Y8
	VADDPD     Y2, Y8, Y2
	VMASKMOVPD 32(R12), Y15, Y8
	VADDPD     Y3, Y8, Y3
	ADDQ       R14, R12
	VMASKMOVPD (R12), Y14, Y8
	VADDPD     Y4, Y8, Y4
	VMASKMOVPD 32(R12), Y15, Y8
	VADDPD     Y5, Y8, Y5
	ADDQ       R14, R12
	VMASKMOVPD (R12), Y14, Y8
	VADDPD     Y6, Y8, Y6
	VMASKMOVPD 32(R12), Y15, Y8
	VADDPD     Y7, Y8, Y7
	MOVQ       DX, R12

tstore4:
	VMASKMOVPD Y0, Y14, (R12)
	VMASKMOVPD Y1, Y15, 32(R12)
	ADDQ       R14, R12
	VMASKMOVPD Y2, Y14, (R12)
	VMASKMOVPD Y3, Y15, 32(R12)
	ADDQ       R14, R12
	VMASKMOVPD Y4, Y14, (R12)
	VMASKMOVPD Y5, Y15, 32(R12)
	ADDQ       R14, R12
	VMASKMOVPD Y6, Y14, (R12)
	VMASKMOVPD Y7, Y15, 32(R12)

done4:
	VZEROUPPER
	RET

// func gemm1f64(a *float64, aks int, b *float64, ldb int, c *float64, k, n int, acc bool)
//
// Single-row variant of gemm4f64 for the sub-quad row remainder, with
// the identical per-element chain. A element l is at a[l·aks].
TEXT ·gemm1f64(SB), NOSPLIT, $0-57
	MOVQ a+0(FP), SI
	MOVQ aks+8(FP), R9
	MOVQ b+16(FP), DI
	MOVQ ldb+24(FP), R11
	MOVQ c+32(FP), DX
	MOVQ k+40(FP), CX
	MOVQ n+48(FP), BX

	SHLQ $3, R9
	SHLQ $3, R11

block1:
	CMPQ BX, $8
	JLT  tail1
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R12
	MOVQ   DI, R13
	MOVQ   CX, AX

loop1:
	VMOVUPD (R13), Y8
	VMOVUPD 32(R13), Y9
	STEP4((R12), Y0, Y1)
	ADDQ    R9, R12
	ADDQ    R11, R13
	DECQ    AX
	JNZ     loop1

	CMPB acc+56(FP), $0
	JEQ  store1
	VMOVUPD (DX), Y8
	VADDPD  Y0, Y8, Y0
	VMOVUPD 32(DX), Y8
	VADDPD  Y1, Y8, Y1

store1:
	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	ADDQ    $64, DI
	ADDQ    $64, DX
	SUBQ    $8, BX
	JMP     block1

tail1:
	TESTQ BX, BX
	JZ    done1
	MOVQ  $8, AX
	SUBQ  BX, AX
	LEAQ  tailmask<>(SB), R12
	VMOVDQU (R12)(AX*8), Y14
	VMOVDQU 32(R12)(AX*8), Y15
	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	MOVQ   SI, R12
	MOVQ   DI, R13
	MOVQ   CX, AX

tloop1:
	VMASKMOVPD (R13), Y14, Y8
	VMASKMOVPD 32(R13), Y15, Y9
	STEP4((R12), Y0, Y1)
	ADDQ       R9, R12
	ADDQ       R11, R13
	DECQ       AX
	JNZ        tloop1

	CMPB acc+56(FP), $0
	JEQ  tstore1
	VMASKMOVPD (DX), Y14, Y8
	VADDPD     Y0, Y8, Y0
	VMASKMOVPD 32(DX), Y15, Y8
	VADDPD     Y1, Y8, Y1

tstore1:
	VMASKMOVPD Y0, Y14, (DX)
	VMASKMOVPD Y1, Y15, 32(DX)

done1:
	VZEROUPPER
	RET

// SQSTEP subtracts the two centroid halves in Y8/Y9 from the broadcast
// x element at addr, squares, and adds into accumulators lo/hi — the
// `d := x-c; s += d*d` chain of SquaredDistance, one lane per centroid.
#define SQSTEP(addr, lo, hi) \
	VBROADCASTSD addr, Y10; \
	VSUBPD       Y8, Y10, Y11; \
	VMULPD       Y11, Y11, Y11; \
	VADDPD       Y11, lo, lo; \
	VSUBPD       Y9, Y10, Y12; \
	VMULPD       Y12, Y12, Y12; \
	VADDPD       Y12, hi, hi

// func sqdist4f64(x *float64, ldx int, ct *float64, ldct, d int, out *float64)
//
// Squared distances from four rows of x (row stride ldx) to eight
// centroids held transposed in ct (d rows of stride ldct, one centroid
// per column): out[r·8 + c] = Σ_l (x[r, l] − ct[l, c])², each lane one
// l-increasing chain.
TEXT ·sqdist4f64(SB), NOSPLIT, $0-48
	MOVQ x+0(FP), SI
	MOVQ ldx+8(FP), R8
	MOVQ ct+16(FP), DI
	MOVQ ldct+24(FP), R11
	MOVQ d+32(FP), AX
	MOVQ out+40(FP), DX

	SHLQ $3, R8
	SHLQ $3, R11
	LEAQ (R8)(R8*2), R10

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1
	VXORPD Y2, Y2, Y2
	VXORPD Y3, Y3, Y3
	VXORPD Y4, Y4, Y4
	VXORPD Y5, Y5, Y5
	VXORPD Y6, Y6, Y6
	VXORPD Y7, Y7, Y7

sqloop4:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	SQSTEP((SI), Y0, Y1)
	SQSTEP((SI)(R8*1), Y2, Y3)
	SQSTEP((SI)(R8*2), Y4, Y5)
	SQSTEP((SI)(R10*1), Y6, Y7)
	ADDQ    $8, SI
	ADDQ    R11, DI
	DECQ    AX
	JNZ     sqloop4

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VMOVUPD Y2, 64(DX)
	VMOVUPD Y3, 96(DX)
	VMOVUPD Y4, 128(DX)
	VMOVUPD Y5, 160(DX)
	VMOVUPD Y6, 192(DX)
	VMOVUPD Y7, 224(DX)
	VZEROUPPER
	RET

// func sqdist1f64(x, ct *float64, ldct, d int, out *float64)
//
// Single-row variant of sqdist4f64: out[c] for c in [0, 8).
TEXT ·sqdist1f64(SB), NOSPLIT, $0-40
	MOVQ x+0(FP), SI
	MOVQ ct+8(FP), DI
	MOVQ ldct+16(FP), R11
	MOVQ d+24(FP), AX
	MOVQ out+32(FP), DX

	SHLQ $3, R11

	VXORPD Y0, Y0, Y0
	VXORPD Y1, Y1, Y1

sqloop1:
	VMOVUPD (DI), Y8
	VMOVUPD 32(DI), Y9
	SQSTEP((SI), Y0, Y1)
	ADDQ    $8, SI
	ADDQ    R11, DI
	DECQ    AX
	JNZ     sqloop1

	VMOVUPD Y0, (DX)
	VMOVUPD Y1, 32(DX)
	VZEROUPPER
	RET
