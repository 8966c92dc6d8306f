// Cache-blocked packed GEMM kernels.
//
// Above a flop cutoff the three products (Mul, MulATB, MulABT) leave
// the naive streaming loops and run a register-tiled micro-kernel over
// a packed copy of the right-hand operand's transpose: each output
// column's K entries become contiguous, the kernel walks 4 output rows
// at a time so every loaded B element feeds 4 accumulators, and the
// column space is traversed in panels small enough that one panel of
// packed B stays L2-resident while all row quads stream over it.
//
// Accumulation-order contract: every dst element is produced by ONE
// strictly k-increasing chain of multiply-adds, exactly the order of
// the naive kernels. The blocked path is therefore bitwise identical
// to the naive path (asserted by gemm_test.go), and — because the
// chain never depends on which worker or row-quad a row lands in — the
// result is bitwise identical for every worker count.
//
// On amd64 with AVX2 the assembly outer-product kernels (gemmOuter,
// gemm64_amd64.go) replace this packed path with the same per-element
// chain; the Go kernels here remain the portable implementation.
//
// Pack buffers are recycled through a sync.Pool so steady-state
// training loops perform no allocation here.
package mat

import (
	"sync"

	"targad/internal/parallel"
)

const (
	// gemmMinFlops is the m·k·n cutoff above which the packed blocked
	// kernel engages; below it the pack/unpack overhead is not
	// amortized and the naive streaming kernels win.
	gemmMinFlops = 1 << 16
	// gemmMinDepth is the minimum accumulation depth (k) for the
	// blocked kernel; shallower products gain nothing from packing.
	gemmMinDepth = 8
	// gemmPanelCols is the number of output columns per packed panel:
	// one panel of packed B (gemmPanelCols·K floats) is sized to stay
	// L2-resident while every row quad streams over it.
	gemmPanelCols = 64
	// gemmMR is the register tile height: the micro-kernel carries
	// gemmMR independent accumulator chains so one B load feeds
	// gemmMR multiply-adds.
	gemmMR = 4
)

// gemmOuter, when non-nil, computes dst rows [lo,hi) of A·B (added to
// dst when acc) with the outer-product assembly kernels, where A
// element (i, l) is a[i·ars + l·aks] for l < k and b is k×dst.Cols
// row-major. Each element keeps the single k-increasing chain of the
// Go kernels, bit for bit, so it replaces the packed path whenever it
// is set. Only simd_amd64.go sets it.
var gemmOuter func(dst *Matrix, a []float64, ars, aks int, b []float64, k, lo, hi int, acc bool)

// outerRows runs gemmOuter over all rows of dst, split row-wise across
// the worker pool. The serial path stays closure-free so steady-state
// calls do not allocate.
func outerRows(dst *Matrix, a []float64, ars, aks int, b []float64, k, rows int, acc bool) {
	if parallel.Workers() == 1 {
		gemmOuter(dst, a, ars, aks, b, k, 0, rows, acc)
		return
	}
	parallel.ForEachChunkMin(rows, minChunkFor(k*dst.Cols), func(lo, hi int) {
		gemmOuter(dst, a, ars, aks, b, k, lo, hi, acc)
	})
}

// gemmBlocked reports whether the packed kernel should run for an
// m×k · k×n product. It is a pure function of the operand shape, so
// the kernel choice never depends on the worker count.
func gemmBlocked(m, k, n int) bool {
	return k >= gemmMinDepth && m*k*n >= gemmMinFlops
}

// packPool recycles pack buffers across GEMM calls. Pointers (not bare
// slices) are pooled so Put does not allocate.
var packPool = sync.Pool{New: func() any { return new(packBuf) }}

type packBuf struct{ data []float64 }

// grabPack returns a pooled buffer resliced to n elements. Contents
// are unspecified; the caller must fully overwrite them.
func grabPack(n int) *packBuf {
	b := packPool.Get().(*packBuf)
	if cap(b.data) < n {
		b.data = make([]float64, n)
	}
	b.data = b.data[:n]
	return b
}

func releasePack(b *packBuf) { packPool.Put(b) }

// packTransposeInto writes srcᵀ into dst (len src.Rows·src.Cols):
// dst[j·Rows + i] = src[i,j], making every source column contiguous.
// Columns are independent, so packing splits across the worker pool
// with a pure-copy body — deterministic for any worker count.
func packTransposeInto(dst []float64, src *Matrix) {
	rows, cols := src.Rows, src.Cols
	if parallel.Workers() == 1 {
		// No closure on the serial path: steady-state packing must not
		// allocate.
		packTransposeRange(dst, src, 0, cols)
		return
	}
	parallel.ForEachChunkMin(cols, minChunkFor(rows), func(lo, hi int) {
		packTransposeRange(dst, src, lo, hi)
	})
}

func packTransposeRange(dst []float64, src *Matrix, lo, hi int) {
	rows, cols := src.Rows, src.Cols
	for j := lo; j < hi; j++ {
		col := dst[j*rows : (j+1)*rows]
		for i := 0; i < rows; i++ {
			col[i] = src.Data[i*cols+j]
		}
	}
}

// gemmPackedRows computes dst rows [lo,hi) of a·B, where bt holds Bᵀ
// row-major (each B column contiguous, length a.Cols each). When acc
// is true the result is added to dst; otherwise dst is overwritten.
// Each dst element is one strictly k-increasing accumulator chain.
func gemmPackedRows(dst, a *Matrix, bt []float64, lo, hi int, acc bool) {
	k, n := a.Cols, dst.Cols
	for jc := 0; jc < n; jc += gemmPanelCols {
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
				c0, c1, c2, c3 := dot4(a0, a1, a2, a3, bt[j*k:(j+1)*k])
				if acc {
					d0[j] += c0
					d1[j] += c1
					d2[j] += c2
					d3[j] += c3
				} else {
					d0[j] = c0
					d1[j] = c1
					d2[j] = c2
					d3[j] = c3
				}
			}
		}
		for ; i < hi; i++ {
			arow := a.Data[i*k : (i+1)*k]
			drow := dst.Data[i*n : (i+1)*n]
			for j := jc; j < jhi; j++ {
				c := dotSeq(arow, bt[j*k:(j+1)*k])
				if acc {
					drow[j] += c
				} else {
					drow[j] = c
				}
			}
		}
	}
}

// dot4 runs four accumulator chains over one shared B column. Each
// chain adds its terms in strictly increasing k order (the adds within
// one chain are sequential, never re-associated), so per-row results
// match dotSeq — and the naive kernels — bitwise.
func dot4(a0, a1, a2, a3, b []float64) (c0, c1, c2, c3 float64) {
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

// dotSeq is the single-row chain of dot4: one accumulator, strictly
// increasing k order, unrolled by 4 without re-association.
func dotSeq(a, b []float64) float64 {
	n := len(b)
	a = a[:n]
	var c float64
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
