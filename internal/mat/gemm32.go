// Float32 packed GEMM for the inference path. Mul32 chooses its
// kernels from the weight shape alone: on amd64 with AVX2+FMA (and
// without the noasm build tag) the 16-column body of the output runs
// the outer-product assembly kernels of kernels_amd64.s, and the
// narrow remainder runs the dot kernels over a packed Bᵀ, 4 output
// rows at a time over 64-column panels. Everywhere else every column
// runs the pure-Go dot kernels below over the packed Bᵀ.
//
// Precision contract: unlike the float64 GEMM there is NO bitwise
// accumulation-order guarantee across implementations. The assembly
// kernels fuse multiply-adds and the dot kernels keep 16 partial sums
// per output element, so asm and fallback results differ in the last
// ulps. What IS guaranteed: (a) results are deterministic per binary,
// CPU and weight shape — kernel choice is decided once at init, the
// batch size never selects a kernel, and every 1-row kernel is
// chain-identical to its 4-row twin, so a row's bits do not depend on
// the rows batched with it or on the worker count; (b) every path
// stays within the ulp bound asserted by gemm32_test.go against the
// float64 reference.
package mat

import (
	"fmt"
	"sync"

	"targad/internal/parallel"
)

// dot4f32 and dotf32 are the pluggable f32 micro-kernels: four
// accumulator chains (respectively one) over a shared packed B column.
// simd_amd64.go swaps in the AVX2/FMA implementations at init when the
// CPU supports them; the pure-Go kernels below are the fallback and the
// only implementation under the noasm tag or on other architectures.
var (
	dot4f32 = dot4f32Go
	dotf32  = dotf32Go

	// mul32Outer, when non-nil, computes dst rows [lo,hi) of a·b for
	// wide outputs (dst.Cols ≥ 16) with the outer-product assembly
	// kernels (fma4x16f32/fma1x16f32): the C tile stays in registers,
	// so there is no packing and no horizontal reduction, and each
	// output element is a single strictly k-increasing FMA chain. Only
	// simd_amd64.go sets it; nil (noasm, non-amd64, unsupported CPU)
	// routes everything through the packed dot kernels.
	mul32Outer func(dst, a, b *Matrix32, lo, hi int)

	// kernelName names the active kernel implementation for logs and
	// tests.
	kernelName = "go"
)

// KernelName reports which kernel implementation is active, for both
// precisions: "avx2+fma" when the assembly kernels were selected at
// init, "go" for the portable fallback (non-amd64 builds, the noasm
// build tag, CPUs without AVX2/FMA, TARGAD_NOSIMD=1, or
// UsePortableKernels).
func KernelName() string { return kernelName }

// UsePortableKernels swaps every kernel chosen at init — f32 and f64 —
// for the pure-Go implementations, the code the noasm tag and
// TARGAD_NOSIMD=1 select, and returns a func that restores the previous
// choice. It lets one binary compare both implementations; it must not
// run while products are in flight.
func UsePortableKernels() (restore func()) {
	d4, d1, o32, o64, near, name := dot4f32, dotf32, mul32Outer, gemmOuter, nearestOuter, kernelName
	dot4f32, dotf32, mul32Outer, gemmOuter, nearestOuter, kernelName = dot4f32Go, dotf32Go, nil, gemmOuterGo, nil, "go"
	return func() {
		dot4f32, dotf32, mul32Outer, gemmOuter, nearestOuter, kernelName = d4, d1, o32, o64, near, name
	}
}

// gemmPanelCols is the number of output columns per packed panel: one
// panel of packed Bᵀ (gemmPanelCols·K floats) is sized to stay
// L2-resident while every row quad streams over it.
const gemmPanelCols = 64

// packPool32 recycles f32 pack buffers across Mul32 calls, mirroring
// packPool.
var packPool32 = sync.Pool{New: func() any { return new(packBuf32) }}

type packBuf32 struct{ data []float32 }

func grabPack32(n int) *packBuf32 {
	b := packPool32.Get().(*packBuf32)
	if cap(b.data) < n {
		b.data = make([]float32, n)
	}
	b.data = b.data[:n]
	return b
}

func releasePack32(b *packBuf32) { packPool32.Put(b) }

// packTransposeColsInto32 writes columns [j0,j1) of src transposed into
// dst: dst[(j-j0)·Rows + i] = src[i,j], making each packed column
// contiguous for the dot kernels.
func packTransposeColsInto32(dst []float32, src *Matrix32, j0, j1 int) {
	rows, cols := src.Rows, src.Cols
	for j := j0; j < j1; j++ {
		col := dst[(j-j0)*rows : (j-j0+1)*rows]
		for i := 0; i < rows; i++ {
			col[i] = src.Data[i*cols+j]
		}
	}
}

// Mul32 computes dst = a·b in float32. dst must be a.Rows×b.Cols and
// must not alias a or b; a nil dst allocates. The kernels depend on
// b's shape only: the outer-product kernels take the 16-column body
// when active, and the packed dot kernels take narrow outputs and the
// sub-16 column remainder. An empty output returns before any kernel
// runs, and k = 0 (an empty chain, +0) zeroes dst. Large products
// split row-wise across the worker pool. Every 1-row kernel is
// chain-identical to its 4-row twin, so each output row is the same
// for any batch it is part of and any worker count.
func Mul32(dst, a, b *Matrix32) (*Matrix32, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("mat: mul32 %dx%d by %dx%d: %w", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape)
	}
	if dst == nil {
		dst = New32(a.Rows, b.Cols)
	} else if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return nil, fmt.Errorf("mat: mul32 destination %dx%d, want %dx%d: %w", dst.Rows, dst.Cols, a.Rows, b.Cols, ErrShape)
	}
	n := b.Cols
	if a.Rows == 0 || n == 0 {
		return dst, nil
	}
	if a.Cols == 0 {
		clear(dst.Data)
		return dst, nil
	}
	body := 0
	if mul32Outer != nil && n >= 16 {
		body = n &^ 15
	}
	var bt *packBuf32
	if body < n {
		bt = grabPack32(b.Rows * (n - body))
		packTransposeColsInto32(bt.data, b, body, n)
	}
	// The serial path stays closure-free: a closure shared with the
	// parallel branch would escape and cost an allocation per call.
	if parallel.Serial(a.Rows, minChunkFor(a.Cols*n)) {
		if body > 0 {
			mul32Outer(dst, a, b, 0, a.Rows)
		}
		if bt != nil {
			gemmPackedRows32(dst, a, bt.data, 0, a.Rows, body)
		}
	} else {
		parallel.ForEachChunkMin(a.Rows, minChunkFor(a.Cols*n), func(lo, hi int) {
			if body > 0 {
				mul32Outer(dst, a, b, lo, hi)
			}
			if bt != nil {
				gemmPackedRows32(dst, a, bt.data, lo, hi, body)
			}
		})
	}
	if bt != nil {
		releasePack32(bt)
	}
	return dst, nil
}

// gemmPackedRows32 computes dst rows [lo,hi) of columns [j0,n) of a·B,
// where bt holds those columns of Bᵀ row-major (each B column
// contiguous, length a.Cols each), dispatching the inner products to
// the active micro-kernel.
func gemmPackedRows32(dst, a *Matrix32, bt []float32, lo, hi, j0 int) {
	k, n := a.Cols, dst.Cols
	for jc := j0; jc < n; jc += gemmPanelCols {
		jhi := jc + gemmPanelCols
		if jhi > n {
			jhi = n
		}
		i := lo
		for ; i+gemmMR <= hi; i += gemmMR {
			a0 := a.Data[(i+0)*k : (i+1)*k]
			a1 := a.Data[(i+1)*k : (i+2)*k]
			a2 := a.Data[(i+2)*k : (i+3)*k]
			a3 := a.Data[(i+3)*k : (i+4)*k]
			d0 := dst.Data[(i+0)*n : (i+1)*n]
			d1 := dst.Data[(i+1)*n : (i+2)*n]
			d2 := dst.Data[(i+2)*n : (i+3)*n]
			d3 := dst.Data[(i+3)*n : (i+4)*n]
			for j := jc; j < jhi; j++ {
				d0[j], d1[j], d2[j], d3[j] = dot4f32(a0, a1, a2, a3, bt[(j-j0)*k:(j-j0+1)*k])
			}
		}
		for ; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*n : (i+1)*n]
			for j := jc; j < jhi; j++ {
				drow[j] = dotf32(arow, bt[(j-j0)*k:(j-j0+1)*k])
			}
		}
	}
}

// dot4f32Go runs four f32 accumulator chains over one shared B column,
// in strictly k-increasing 4-unrolled order (no re-association; the
// unroll only interleaves independent chains).
func dot4f32Go(a0, a1, a2, a3, b []float32) (c0, c1, c2, c3 float32) {
	n := len(b)
	a0 = a0[:n]
	a1 = a1[:n]
	a2 = a2[:n]
	a3 = a3[:n]
	j := 0
	for ; j+4 <= n; j += 4 {
		b0, b1, b2, b3 := b[j], b[j+1], b[j+2], b[j+3]
		c0 += a0[j] * b0
		c1 += a1[j] * b0
		c2 += a2[j] * b0
		c3 += a3[j] * b0
		c0 += a0[j+1] * b1
		c1 += a1[j+1] * b1
		c2 += a2[j+1] * b1
		c3 += a3[j+1] * b1
		c0 += a0[j+2] * b2
		c1 += a1[j+2] * b2
		c2 += a2[j+2] * b2
		c3 += a3[j+2] * b2
		c0 += a0[j+3] * b3
		c1 += a1[j+3] * b3
		c2 += a2[j+3] * b3
		c3 += a3[j+3] * b3
	}
	for ; j < n; j++ {
		bv := b[j]
		c0 += a0[j] * bv
		c1 += a1[j] * bv
		c2 += a2[j] * bv
		c3 += a3[j] * bv
	}
	return
}

// dotf32Go is the single-row chain of dot4f32Go.
func dotf32Go(a, b []float32) float32 {
	n := len(b)
	a = a[:n]
	var c float32
	j := 0
	for ; j+4 <= n; j += 4 {
		c += a[j] * b[j]
		c += a[j+1] * b[j+1]
		c += a[j+2] * b[j+2]
		c += a[j+3] * b[j+3]
	}
	for ; j < n; j++ {
		c += a[j] * b[j]
	}
	return c
}
