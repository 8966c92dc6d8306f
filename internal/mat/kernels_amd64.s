// AVX2/FMA micro-kernels for the float32 inference GEMM (gemm32.go),
// plus the CPUID/XGETBV probes that gate their selection at init
// (simd_amd64.go). The float64 kernels live in kernels64_amd64.s: they
// are bitwise-pinned to the Go accumulation order, so they use unfused
// multiplies and adds where these use FMA.
//
// Two kernel families:
//
//   - fma4x16f32/fma1x16f32: outer-product kernels over a register-
//     resident C tile — A elements broadcast against B row slabs, no
//     packing, no horizontal reduction. One strictly k-increasing FMA
//     chain per output element. These carry the column body (n ≥ 16)
//     of the f32 GEMM.
//   - dot4f32AVX2/dotf32AVX2: dot-product kernels over a packed Bᵀ
//     column, 16 independent float32 partial sums per output (two
//     8-lane YMM accumulator banks) folded pairwise at the end. These
//     carry narrow outputs and the sub-16 column remainder.
//
// Both associations differ from the strictly k-increasing unfused Go
// fallback — the f32 tolerance contract (DESIGN.md "Numerical
// precision model") covers the difference; gemm32_test.go bounds all
// paths against the f64 reference.

//go:build !noasm

#include "textflag.h"

// func dot4f32AVX2(a0, a1, a2, a3, b *float32, n int) (c0, c1, c2, c3 float32)
//
// Four dot products sharing one packed B column: c_r = Σ_k a_r[k]·b[k].
// Per 16-element step each of the four rows issues two FMAs into its
// own accumulator pair (Y0..Y3 and Y4..Y7), so eight FMA chains are in
// flight — enough to cover FMA latency at two issues per cycle.
TEXT ·dot4f32AVX2(SB), NOSPLIT, $0-64
	MOVQ a0+0(FP), R8
	MOVQ a1+8(FP), R9
	MOVQ a2+16(FP), R10
	MOVQ a3+24(FP), R11
	MOVQ b+32(FP), R12
	MOVQ n+40(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

loop16:
	CMPQ AX, DX
	JGE  rem8
	VMOVUPS (R12)(AX*4), Y8
	VMOVUPS 32(R12)(AX*4), Y9
	VMOVUPS (R8)(AX*4), Y10
	VMOVUPS 32(R8)(AX*4), Y11
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y11, Y4
	VMOVUPS (R9)(AX*4), Y10
	VMOVUPS 32(R9)(AX*4), Y11
	VFMADD231PS Y8, Y10, Y1
	VFMADD231PS Y9, Y11, Y5
	VMOVUPS (R10)(AX*4), Y10
	VMOVUPS 32(R10)(AX*4), Y11
	VFMADD231PS Y8, Y10, Y2
	VFMADD231PS Y9, Y11, Y6
	VMOVUPS (R11)(AX*4), Y10
	VMOVUPS 32(R11)(AX*4), Y11
	VFMADD231PS Y8, Y10, Y3
	VFMADD231PS Y9, Y11, Y7
	ADDQ $16, AX
	JMP  loop16

rem8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ AX, DX
	JGE  fold
	VMOVUPS (R12)(AX*4), Y8
	VMOVUPS (R8)(AX*4), Y10
	VFMADD231PS Y8, Y10, Y0
	VMOVUPS (R9)(AX*4), Y10
	VFMADD231PS Y8, Y10, Y1
	VMOVUPS (R10)(AX*4), Y10
	VFMADD231PS Y8, Y10, Y2
	VMOVUPS (R11)(AX*4), Y10
	VFMADD231PS Y8, Y10, Y3
	ADDQ $8, AX

fold:
	// Fold bank two into bank one, then reduce each YMM accumulator to
	// a scalar in lane 0 of X0..X3.
	VADDPS Y4, Y0, Y0
	VADDPS Y5, Y1, Y1
	VADDPS Y6, Y2, Y2
	VADDPS Y7, Y3, Y3
	VEXTRACTF128 $1, Y0, X8
	VADDPS  X8, X0, X0
	VEXTRACTF128 $1, Y1, X8
	VADDPS  X8, X1, X1
	VEXTRACTF128 $1, Y2, X8
	VADDPS  X8, X2, X2
	VEXTRACTF128 $1, Y3, X8
	VADDPS  X8, X3, X3
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X1, X1, X1
	VHADDPS X1, X1, X1
	VHADDPS X2, X2, X2
	VHADDPS X2, X2, X2
	VHADDPS X3, X3, X3
	VHADDPS X3, X3, X3

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSS (R12)(AX*4), X8
	VMOVSS (R8)(AX*4), X9
	VFMADD231SS X8, X9, X0
	VMOVSS (R9)(AX*4), X9
	VFMADD231SS X8, X9, X1
	VMOVSS (R10)(AX*4), X9
	VFMADD231SS X8, X9, X2
	VMOVSS (R11)(AX*4), X9
	VFMADD231SS X8, X9, X3
	INCQ AX
	JMP  tail

done:
	VMOVSS X0, c0+48(FP)
	VMOVSS X1, c1+52(FP)
	VMOVSS X2, c2+56(FP)
	VMOVSS X3, c3+60(FP)
	VZEROUPPER
	RET

// func dotf32AVX2(a, b *float32, n int) float32
//
// Single-row dot product with two YMM accumulator banks, used for the
// sub-quad row remainder of gemmPackedRows32.
TEXT ·dotf32AVX2(SB), NOSPLIT, $0-28
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ n+16(FP), CX

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

	XORQ AX, AX
	MOVQ CX, DX
	ANDQ $-16, DX

loop16:
	CMPQ AX, DX
	JGE  rem8
	VMOVUPS (R9)(AX*4), Y8
	VMOVUPS 32(R9)(AX*4), Y9
	VMOVUPS (R8)(AX*4), Y10
	VMOVUPS 32(R8)(AX*4), Y11
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y11, Y1
	ADDQ $16, AX
	JMP  loop16

rem8:
	MOVQ CX, DX
	ANDQ $-8, DX
	CMPQ AX, DX
	JGE  fold
	VMOVUPS (R9)(AX*4), Y8
	VMOVUPS (R8)(AX*4), Y10
	VFMADD231PS Y8, Y10, Y0
	ADDQ $8, AX

fold:
	VADDPS Y1, Y0, Y0
	VEXTRACTF128 $1, Y0, X8
	VADDPS  X8, X0, X0
	VHADDPS X0, X0, X0
	VHADDPS X0, X0, X0

tail:
	CMPQ AX, CX
	JGE  done
	VMOVSS (R9)(AX*4), X8
	VMOVSS (R8)(AX*4), X9
	VFMADD231SS X8, X9, X0
	INCQ AX
	JMP  tail

done:
	VMOVSS X0, ret+24(FP)
	VZEROUPPER
	RET

// func fma4x16f32(a *float32, lda int, b *float32, ldb int, c *float32, ldc int, k int)
//
// Outer-product micro-kernel: C[0:4, 0:16] = A[0:4, 0:k] · B[0:k, 0:16]
// with row strides lda/ldb/ldc (in elements). Per k step it broadcasts
// one A element per row and issues 8 FMAs against the two YMM halves of
// B's row slab, so the 4×16 C tile lives entirely in registers — no
// horizontal reduction and no packing. Each C element is a single
// strictly k-increasing FMA chain (the k order of the Go dot kernels,
// with fused roundings), which keeps results worker-count invariant:
// this kernel and fma1x16f32 produce bitwise-identical rows.
TEXT ·fma4x16f32(SB), NOSPLIT, $0-56
	MOVQ a+0(FP), R8
	MOVQ lda+8(FP), R11
	MOVQ b+16(FP), R9
	MOVQ ldb+24(FP), R12
	MOVQ c+32(FP), R10
	MOVQ ldc+40(FP), R13
	MOVQ k+48(FP), CX

	SHLQ $2, R11               // strides in bytes
	SHLQ $2, R12
	SHLQ $2, R13
	LEAQ (R11)(R11*2), R14     // 3·lda bytes

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1
	VXORPS Y2, Y2, Y2
	VXORPS Y3, Y3, Y3
	VXORPS Y4, Y4, Y4
	VXORPS Y5, Y5, Y5
	VXORPS Y6, Y6, Y6
	VXORPS Y7, Y7, Y7

loop:
	VMOVUPS (R9), Y8           // B[k, 0:8]
	VMOVUPS 32(R9), Y9         // B[k, 8:16]
	VBROADCASTSS (R8), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	VBROADCASTSS (R8)(R11*1), Y11
	VFMADD231PS Y8, Y11, Y2
	VFMADD231PS Y9, Y11, Y3
	VBROADCASTSS (R8)(R11*2), Y12
	VFMADD231PS Y8, Y12, Y4
	VFMADD231PS Y9, Y12, Y5
	VBROADCASTSS (R8)(R14*1), Y13
	VFMADD231PS Y8, Y13, Y6
	VFMADD231PS Y9, Y13, Y7
	ADDQ $4, R8
	ADDQ R12, R9
	DECQ CX
	JNZ  loop

	VMOVUPS Y0, (R10)
	VMOVUPS Y1, 32(R10)
	ADDQ R13, R10
	VMOVUPS Y2, (R10)
	VMOVUPS Y3, 32(R10)
	ADDQ R13, R10
	VMOVUPS Y4, (R10)
	VMOVUPS Y5, 32(R10)
	ADDQ R13, R10
	VMOVUPS Y6, (R10)
	VMOVUPS Y7, 32(R10)
	VZEROUPPER
	RET

// func fma1x16f32(a *float32, b *float32, ldb int, c *float32, k int)
//
// Single-row variant of fma4x16f32 for the sub-quad row remainder.
// Identical per-element accumulation chain.
TEXT ·fma1x16f32(SB), NOSPLIT, $0-40
	MOVQ a+0(FP), R8
	MOVQ b+8(FP), R9
	MOVQ ldb+16(FP), R12
	MOVQ c+24(FP), R10
	MOVQ k+32(FP), CX

	SHLQ $2, R12

	VXORPS Y0, Y0, Y0
	VXORPS Y1, Y1, Y1

loop:
	VMOVUPS (R9), Y8
	VMOVUPS 32(R9), Y9
	VBROADCASTSS (R8), Y10
	VFMADD231PS Y8, Y10, Y0
	VFMADD231PS Y9, Y10, Y1
	ADDQ $4, R8
	ADDQ R12, R9
	DECQ CX
	JNZ  loop

	VMOVUPS Y0, (R10)
	VMOVUPS Y1, 32(R10)
	VZEROUPPER
	RET

// func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
TEXT ·cpuidex(SB), NOSPLIT, $0-24
	MOVL leaf+0(FP), AX
	MOVL sub+4(FP), CX
	CPUID
	MOVL AX, eax+8(FP)
	MOVL BX, ebx+12(FP)
	MOVL CX, ecx+16(FP)
	MOVL DX, edx+20(FP)
	RET

// func xgetbv0() (eax, edx uint32)
TEXT ·xgetbv0(SB), NOSPLIT, $0-8
	XORL CX, CX
	XGETBV
	MOVL AX, eax+0(FP)
	MOVL DX, edx+4(FP)
	RET
