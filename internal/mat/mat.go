// Package mat provides the dense linear-algebra kernels that underpin
// every learning component in this repository: matrices stored in
// row-major float64 slices, matrix products, row/column reductions, and
// numerically careful helpers (log-sum-exp, softmax) used by the neural
// network substrate.
//
// The package is deliberately small and allocation-conscious: hot paths
// (gemm, axpy) accept destination buffers so training loops can reuse
// memory across iterations.
//
// Every float64 product (Mul, MulATB, MulATBAcc, MulABT), whatever its
// shape, runs through one kernel seam (gemm.go): each output element is
// one strictly k-increasing multiply-add chain from +0, so results are
// bitwise identical across kernels and worker counts.
//
// # Buffer ownership
//
// Destination-taking kernels (Mul, MulATB, MulABT, MulATBAcc,
// ColSumsInto, Softmax) follow one contract: the CALLER owns dst, the
// kernel fully overwrites it (or, for the explicit Acc variants,
// performs exactly one add per element), and dst must not alias an
// input operand. Ensure is the companion primitive for reusable
// workspaces: it reshapes a buffer in place when capacity allows and
// leaves the contents unspecified, which is safe precisely because
// every kernel overwrites dst. Views (Row, a Matrix wrapping
// a Param's slice) alias their parent storage by design; writing
// through a view writes through to the parent.
package mat

import (
	"errors"
	"fmt"
	"math"
)

// Matrix is a dense row-major matrix of float64 values.
//
// The zero value is an empty 0×0 matrix. Data aliasing is allowed and
// sometimes exploited: Row returns a view, not a copy.
type Matrix struct {
	Rows, Cols int
	Data       []float64
}

// ErrShape reports a dimension mismatch between operands.
var ErrShape = errors.New("mat: dimension mismatch")

// New returns a zeroed rows×cols matrix.
func New(rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// FromRows builds a matrix by copying the given rows. All rows must
// have equal length.
func FromRows(rows [][]float64) (*Matrix, error) {
	if len(rows) == 0 {
		return New(0, 0), nil
	}
	cols := len(rows[0])
	m := New(len(rows), cols)
	for i, r := range rows {
		if len(r) != cols {
			return nil, fmt.Errorf("mat: row %d has %d columns, want %d: %w", i, len(r), cols, ErrShape)
		}
		copy(m.Data[i*cols:(i+1)*cols], r)
	}
	return m, nil
}

// At returns the element at row i, column j.
func (m *Matrix) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i (no copy).
func (m *Matrix) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix) Clone() *Matrix {
	c := New(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Zero sets every element to zero, keeping the backing array.
func (m *Matrix) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Ensure returns a rows×cols matrix backed by m's storage when its
// capacity allows, allocating a fresh backing array otherwise. m may
// be nil. The contents are unspecified — callers must fully overwrite
// them — which makes Ensure the primitive behind every reusable
// workspace buffer: training loops call it once per batch and pay an
// allocation only when the requested shape outgrows the capacity high
// water mark.
func Ensure(m *Matrix, rows, cols int) *Matrix {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if m == nil {
		return &Matrix{Rows: rows, Cols: cols, Data: make([]float64, n)}
	}
	if cap(m.Data) < n {
		m.Data = make([]float64, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// parChunkFlops is the minimum number of multiply-adds a parallel
// chunk must amortize before a GEMM is split across the worker pool;
// below roughly twice this the whole product runs serially on the
// caller's goroutine. A helper does not start at once: on a 2-vCPU VM,
// parallel's BenchmarkForkJoin runs Map(2) over two 20µs tasks in
// about 43µs and over two 100µs tasks in about 170µs, so a helper
// begins some 65µs late. A chunk of 2^20 multiply-adds runs for a few
// hundred µs at float64 FMA throughput, enough to repay that start.
// Smaller products — a 64-row serving pass — stay on their caller's
// core, leaving the other cores to the requests beside it.
const parChunkFlops = 1 << 20

// minChunkFor converts a per-index cost in multiply-adds into the
// minimum indices per parallel chunk.
func minChunkFor(perIndexFlops int) int {
	if perIndexFlops < 1 {
		perIndexFlops = 1
	}
	m := parChunkFlops / perIndexFlops
	if m < 1 {
		m = 1
	}
	return m
}

// Mul computes dst = a·b. dst must be a.Rows×b.Cols and must not alias
// a or b. A nil dst allocates a fresh result. Every dst element is
// fully overwritten; pre-existing contents never matter.
//
// The product runs through the gemmOuter seam of gemm.go, split
// row-wise across the worker pool. Every output element is one
// strictly k-increasing accumulator chain regardless of kernel or
// worker count, so the result is bitwise identical for any of them.
func Mul(dst, a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("mat: mul %dx%d by %dx%d: %w", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape)
	}
	if dst == nil {
		dst = New(a.Rows, b.Cols)
	} else if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return nil, fmt.Errorf("mat: mul destination %dx%d, want %dx%d: %w", dst.Rows, dst.Cols, a.Rows, b.Cols, ErrShape)
	}
	outerRows(dst, a.Data, a.Cols, 1, b.Data, a.Cols, a.Rows, false)
	return dst, nil
}

// MulATB computes dst = aᵀ·b without materializing the transpose.
//
// The product is split over output rows (columns of a); each dst
// element still accumulates its a.Rows terms in increasing row order,
// so the result is bitwise identical to the serial path for any worker
// count.
func MulATB(dst, a, b *Matrix) (*Matrix, error) {
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("mat: mulATB %dx%d by %dx%d: %w", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape)
	}
	if dst == nil {
		dst = New(a.Cols, b.Cols)
	} else if dst.Rows != a.Cols || dst.Cols != b.Cols {
		return nil, fmt.Errorf("mat: mulATB destination %dx%d, want %dx%d: %w", dst.Rows, dst.Cols, a.Cols, b.Cols, ErrShape)
	}
	// Column i of a is row i of aᵀ: stride 1 across output rows,
	// a.Cols along the accumulation index.
	outerRows(dst, a.Data, 1, a.Cols, b.Data, a.Rows, a.Cols, false)
	return dst, nil
}

// MulATBAcc computes dst += aᵀ·b: the accumulate variant of MulATB
// used by Dense.Backward to write straight into a parameter's gradient
// buffer (dst is typically a view aliasing Param.Grad). dst must be
// non-nil, a.Cols×b.Cols, and must not alias a or b. Each dst element
// receives exactly one add of a complete r-increasing product chain,
// matching MulATB-then-Axpy bitwise; with a.Rows = 0 dst is unchanged.
func MulATBAcc(dst, a, b *Matrix) (*Matrix, error) {
	if dst == nil {
		return nil, fmt.Errorf("mat: mulATBAcc needs a destination: %w", ErrShape)
	}
	if a.Rows != b.Rows {
		return nil, fmt.Errorf("mat: mulATBAcc %dx%d by %dx%d: %w", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape)
	}
	if dst.Rows != a.Cols || dst.Cols != b.Cols {
		return nil, fmt.Errorf("mat: mulATBAcc destination %dx%d, want %dx%d: %w", dst.Rows, dst.Cols, a.Cols, b.Cols, ErrShape)
	}
	outerRows(dst, a.Data, 1, a.Cols, b.Data, a.Rows, a.Cols, true)
	return dst, nil
}

// MulABT computes dst = a·bᵀ. bᵀ is packed once into a pooled buffer so
// the seam reads it row-major; rows of the output are split across the
// worker pool, bitwise identically for any worker count.
func MulABT(dst, a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("mat: mulABT %dx%d by %dx%d: %w", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape)
	}
	if dst == nil {
		dst = New(a.Rows, b.Rows)
	} else if dst.Rows != a.Rows || dst.Cols != b.Rows {
		return nil, fmt.Errorf("mat: mulABT destination %dx%d, want %dx%d: %w", dst.Rows, dst.Cols, a.Rows, b.Rows, ErrShape)
	}
	bt := grabPack(b.Rows * b.Cols)
	packTransposeInto(bt.data, b)
	outerRows(dst, a.Data, a.Cols, 1, bt.data, a.Cols, a.Rows, false)
	releasePack(bt)
	return dst, nil
}

// Axpy performs y += alpha*x element-wise.
func Axpy(alpha float64, x, y []float64) {
	for i, v := range x {
		y[i] += alpha * v
	}
}

// Scale multiplies every element of x by alpha in place.
func Scale(alpha float64, x []float64) {
	for i := range x {
		x[i] *= alpha
	}
}

// ColSumsInto writes the per-column sums of m into dst and returns it.
// A nil dst allocates; otherwise len(dst) must equal m.Cols (it panics
// on a mismatch, matching Softmax's convention for vector helpers).
// dst is overwritten, not accumulated into, and must not alias m's
// data.
func ColSumsInto(dst []float64, m *Matrix) []float64 {
	if dst == nil {
		dst = make([]float64, m.Cols)
	} else {
		if len(dst) != m.Cols {
			panic(fmt.Sprintf("mat: colsums destination len %d, want %d", len(dst), m.Cols))
		}
		for j := range dst {
			dst[j] = 0
		}
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			dst[j] += v
		}
	}
	return dst
}

// SquaredDistance returns ‖a−b‖² for equally sized vectors.
func SquaredDistance(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		d := v - b[i]
		s += d * d
	}
	return s
}

// LogSumExp returns log(Σ exp(x_i)) computed stably.
func LogSumExp(x []float64) float64 {
	if len(x) == 0 {
		return math.Inf(-1)
	}
	m := x[0]
	for _, v := range x[1:] {
		if v > m {
			m = v
		}
	}
	if math.IsInf(m, -1) {
		return m
	}
	var s float64
	for _, v := range x {
		s += math.Exp(v - m)
	}
	return m + math.Log(s)
}

// Softmax writes the softmax of logits into out (out may alias logits).
// The computation subtracts the max logit first for stability.
func Softmax(out, logits []float64) {
	if len(out) != len(logits) {
		panic("mat: softmax length mismatch")
	}
	m := logits[0]
	for _, v := range logits[1:] {
		if v > m {
			m = v
		}
	}
	var s float64
	for i, v := range logits {
		e := math.Exp(v - m)
		out[i] = e
		s += e
	}
	inv := 1 / s
	for i := range out {
		out[i] *= inv
	}
}

// ArgMax returns the index of the maximum element (first on ties) and
// its value. It panics on an empty slice.
func ArgMax(x []float64) (int, float64) {
	if len(x) == 0 {
		panic("mat: argmax of empty slice")
	}
	bi, bv := 0, x[0]
	for i, v := range x[1:] {
		if v > bv {
			bi, bv = i+1, v
		}
	}
	return bi, bv
}

// MinMax returns the minimum and maximum of x. It panics on an empty
// slice.
func MinMax(x []float64) (min, max float64) {
	if len(x) == 0 {
		panic("mat: minmax of empty slice")
	}
	min, max = x[0], x[0]
	for _, v := range x[1:] {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}

// Mean returns the arithmetic mean of x, or 0 for an empty slice.
func Mean(x []float64) float64 {
	if len(x) == 0 {
		return 0
	}
	var s float64
	for _, v := range x {
		s += v
	}
	return s / float64(len(x))
}

// Variance returns the population variance of x, or 0 when len(x) < 2.
func Variance(x []float64) float64 {
	if len(x) < 2 {
		return 0
	}
	m := Mean(x)
	var s float64
	for _, v := range x {
		d := v - m
		s += d * d
	}
	return s / float64(len(x))
}

// Std returns the population standard deviation of x.
func Std(x []float64) float64 { return math.Sqrt(Variance(x)) }
