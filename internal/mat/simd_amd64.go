//go:build !noasm

package mat

import "os"

// Assembly micro-kernels and CPU probes (kernels_amd64.s, and the f64
// kernels of kernels64_amd64.s). The kernels require AVX2 + FMA and
// OS-enabled YMM state; init verifies all three before swapping them
// in, so a binary built on a modern box still runs (on the Go
// fallback) on hardware without them.

//go:noescape
func dot4f32AVX2(a0, a1, a2, a3, b *float32, n int) (c0, c1, c2, c3 float32)

//go:noescape
func dotf32AVX2(a, b *float32, n int) float32

func cpuidex(leaf, sub uint32) (eax, ebx, ecx, edx uint32)

func xgetbv0() (eax, edx uint32)

// haveAVX2FMA reports whether the running CPU and OS support the
// assembly kernels: FMA and OSXSAVE from CPUID leaf 1, XMM+YMM state
// enabled in XCR0, and AVX2 from leaf 7.
func haveAVX2FMA() bool {
	maxLeaf, _, _, _ := cpuidex(0, 0)
	if maxLeaf < 7 {
		return false
	}
	_, _, c1, _ := cpuidex(1, 0)
	const (
		fmaBit     = 1 << 12
		osxsaveBit = 1 << 27
	)
	if c1&fmaBit == 0 || c1&osxsaveBit == 0 {
		return false
	}
	if xlo, _ := xgetbv0(); xlo&0x6 != 0x6 {
		return false
	}
	_, b7, _, _ := cpuidex(7, 0)
	const avx2Bit = 1 << 5
	return b7&avx2Bit != 0
}

// dot4f32Asm adapts the slice-based kernel contract to the pointer
// signature of the assembly. len(b) is the accumulation depth; the a
// slices are at least that long (gemm32.go slices them to exactly k).
func dot4f32Asm(a0, a1, a2, a3, b []float32) (c0, c1, c2, c3 float32) {
	n := len(b)
	if n == 0 {
		return
	}
	return dot4f32AVX2(&a0[0], &a1[0], &a2[0], &a3[0], &b[0], n)
}

// dotf32Asm is the single-row adapter.
func dotf32Asm(a, b []float32) float32 {
	n := len(b)
	if n == 0 {
		return 0
	}
	return dotf32AVX2(&a[0], &b[0], n)
}

func init() {
	// TARGAD_NOSIMD=1 forces the portable kernels at runtime — the same
	// code path the noasm build tag selects at compile time — so the
	// fallback can be exercised (and timed) without a rebuild.
	if os.Getenv("TARGAD_NOSIMD") != "" {
		return
	}
	if haveAVX2FMA() {
		dot4f32 = dot4f32Asm
		dotf32 = dotf32Asm
		mul32Outer = mul32OuterAsm
		gemmOuter = gemmOuterAsm
		nearestOuter = nearestAsm
		kernelName = "avx2+fma"
	}
}
