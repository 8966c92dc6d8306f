// The float64 GEMM seam.
//
// Every f64 product (Mul, MulATB, MulATBAcc, MulABT) is one call to
// outerRows, which splits dst's rows across the worker pool and runs
// gemmOuter on each row range. gemmOuter reads A in place through two
// strides — (lda, 1) for a·b, (1, lda) for aᵀ·b — and B row-major, so
// only MulABT packs an operand (bᵀ, once per call); a B over
// gemmPanelBytes is read through column-panel copies.
//
// Accumulation-order contract: every dst element is produced by ONE
// strictly k-increasing chain of unfused multiply-adds starting at +0
// (added to dst once in the Acc variant). The chain never depends on
// which worker, row quad or column block an element lands in, so the
// result is bitwise identical for every worker count and for both
// kernels: gemmOuterAsm (the AVX kernels of kernels64_amd64.s,
// installed at init by simd_amd64.go) and gemmOuterGo below, the
// portable twin the noasm build, non-amd64 targets, TARGAD_NOSIMD=1
// and UsePortableKernels run.
//
// Pack buffers are recycled through a sync.Pool so steady-state
// training loops perform no allocation here.
package mat

import (
	"sync"

	"targad/internal/parallel"
)

const (
	// gemmMR is the register tile height of the assembly kernels: they
	// carry gemmMR rows of accumulator chains so one B load feeds gemmMR
	// multiply-adds.
	gemmMR = 4
	// gemmPanelBytes bounds the B operand a kernel streams over: a B
	// larger than this is copied one column panel at a time into a
	// contiguous buffer of at most this size, so the panel stays
	// L2-resident (and TLB-friendly) while every row tile walks it.
	gemmPanelBytes = 256 << 10
)

// gemmOuter computes dst rows [lo,hi), columns [jc, jc+w) of A·B
// (added to dst when acc), where A element (i, l) is a[i·ars + l·aks]
// for l < k and B's columns jc.. are row-major at b with row stride
// ldb; k ≥ 1. It is never nil: simd_amd64.go swaps in gemmOuterAsm
// when the CPU supports it.
var gemmOuter = gemmOuterGo

// outerRows computes rows [0, rows) of dst = A·B (added to dst when
// acc), split row-wise across the worker pool. Degenerate shapes never
// reach a kernel: an empty dst is left alone, and k = 0 (an empty
// chain, +0) zeroes dst, or leaves it as it is when acc. The serial
// path stays closure-free so steady-state calls do not allocate.
func outerRows(dst *Matrix, a []float64, ars, aks int, b []float64, k, rows int, acc bool) {
	if rows == 0 || dst.Cols == 0 {
		return
	}
	if k == 0 {
		if !acc {
			clear(dst.Data[:rows*dst.Cols])
		}
		return
	}
	minRows := minChunkFor(k * dst.Cols)
	if parallel.Serial(rows, minRows) {
		outerPanels(dst, a, ars, aks, b, k, 0, rows, acc)
		return
	}
	parallel.ForEachChunkMin(rows, minRows, func(lo, hi int) {
		outerPanels(dst, a, ars, aks, b, k, lo, hi, acc)
	})
}

// outerPanels runs gemmOuter over dst rows [lo,hi), B being k×dst.Cols
// row-major. A B over gemmPanelBytes is copied into pooled column
// panels first; panels change where B is read from, never an
// element's chain.
func outerPanels(dst *Matrix, a []float64, ars, aks int, b []float64, k, lo, hi int, acc bool) {
	n := dst.Cols
	if k*n*8 <= gemmPanelBytes {
		gemmOuter(dst, a, ars, aks, b, n, k, lo, hi, 0, n, acc)
		return
	}
	panel := max(8, (gemmPanelBytes/8/k)&^7)
	buf := grabPack(k * panel)
	for jc := 0; jc < n; jc += panel {
		w := min(panel, n-jc)
		bp := buf.data[:k*w]
		for l := 0; l < k; l++ {
			copy(bp[l*w:(l+1)*w], b[l*n+jc:])
		}
		gemmOuter(dst, a, ars, aks, bp, w, k, lo, hi, jc, w, acc)
	}
	releasePack(buf)
}

// gemmOuterGo is the portable gemmOuter, the Go twin of
// gemm4f64/gemm1f64: each element is one k-increasing chain c += a·b
// from +0 held in a register. Its register tile is 2 rows × 4 columns
// rather than the assembly's 4 × 8: eight scalar accumulators and
// their operands fit the sixteen SSE registers, where a 4-row tile
// spills. Rows go in pairs, then one at a time.
func gemmOuterGo(dst *Matrix, a []float64, ars, aks int, b []float64, ldb, k, lo, hi, jc, w int, acc bool) {
	n := dst.Cols
	i := lo
	for ; i+2 <= hi; i += 2 {
		outer2Go(dst.Data[i*n+jc:], n, a[i*ars:], ars, aks, b, ldb, k, w, acc)
	}
	if i < hi {
		outer1Go(dst.Data[i*n+jc:i*n+jc+w], a[i*ars:], aks, b, ldb, k, acc)
	}
}

// outer2Go computes w columns of a row pair: row r's start at
// d[r·ldd]. A's rows start at a[0] and a[ars]; B element (l, j) is
// b[l·ldb + j]. Columns go four at a time, then one at a time.
func outer2Go(d []float64, ldd int, a []float64, ars, aks int, b []float64, ldb, k, w int, acc bool) {
	d0, d1 := d[:w], d[ldd:ldd+w]
	j := 0
	for ; j+4 <= w; j += 4 {
		var c00, c01, c02, c03, c10, c11, c12, c13 float64
		for p, bl := 0, j; bl < k*ldb; p, bl = p+aks, bl+ldb {
			bb := b[bl : bl+4 : bl+4]
			a0, a1 := a[p], a[p+ars]
			c00 += a0 * bb[0]
			c01 += a0 * bb[1]
			c02 += a0 * bb[2]
			c03 += a0 * bb[3]
			c10 += a1 * bb[0]
			c11 += a1 * bb[1]
			c12 += a1 * bb[2]
			c13 += a1 * bb[3]
		}
		store4(d0[j:j+4], c00, c01, c02, c03, acc)
		store4(d1[j:j+4], c10, c11, c12, c13, acc)
	}
	for ; j < w; j++ {
		var c0, c1 float64
		for p, bl := 0, j; bl < k*ldb; p, bl = p+aks, bl+ldb {
			c0 += a[p] * b[bl]
			c1 += a[p+ars] * b[bl]
		}
		if acc {
			d0[j] += c0
			d1[j] += c1
		} else {
			d0[j], d1[j] = c0, c1
		}
	}
}

// outer1Go is the single-row outer2Go for the last row of an odd
// range, with the identical per-element chain; it fills all of d.
func outer1Go(d, a []float64, aks int, b []float64, ldb, k int, acc bool) {
	w := len(d)
	j := 0
	for ; j+4 <= w; j += 4 {
		var c0, c1, c2, c3 float64
		for p, bl := 0, j; bl < k*ldb; p, bl = p+aks, bl+ldb {
			bb := b[bl : bl+4 : bl+4]
			av := a[p]
			c0 += av * bb[0]
			c1 += av * bb[1]
			c2 += av * bb[2]
			c3 += av * bb[3]
		}
		store4(d[j:j+4], c0, c1, c2, c3, acc)
	}
	for ; j < w; j++ {
		var c float64
		for p, bl := 0, j; bl < k*ldb; p, bl = p+aks, bl+ldb {
			c += a[p] * b[bl]
		}
		if acc {
			d[j] += c
		} else {
			d[j] = c
		}
	}
}

// store4 writes (or, when acc, adds) four finished chains into d[0:4].
func store4(d []float64, c0, c1, c2, c3 float64, acc bool) {
	d = d[:4]
	if acc {
		d[0] += c0
		d[1] += c1
		d[2] += c2
		d[3] += c3
		return
	}
	d[0], d[1], d[2], d[3] = c0, c1, c2, c3
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
	if parallel.Serial(cols, minChunkFor(rows)) {
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
