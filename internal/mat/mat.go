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
// # Buffer ownership
//
// Destination-taking kernels (Mul, MulATB, MulABT, MulATBAcc,
// ColSumsInto, Softmax) follow one contract: the CALLER owns dst, the
// kernel fully overwrites it (or, for the explicit Acc variants,
// performs exactly one add per element), and dst must not alias an
// input operand. Ensure is the companion primitive for reusable
// workspaces: it reshapes a buffer in place when capacity allows and
// leaves the contents unspecified, which is safe precisely because
// every kernel overwrites dst. Views (Row, Reshape, a Matrix wrapping
// a Param's slice) alias their parent storage by design; writing
// through a view writes through to the parent.
package mat

import (
	"errors"
	"fmt"
	"math"

	"targad/internal/parallel"
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

// CopyFrom copies src into m; shapes must match.
func (m *Matrix) CopyFrom(src *Matrix) error {
	if m.Rows != src.Rows || m.Cols != src.Cols {
		return fmt.Errorf("mat: copy %dx%d into %dx%d: %w", src.Rows, src.Cols, m.Rows, m.Cols, ErrShape)
	}
	copy(m.Data, src.Data)
	return nil
}

// Reshape returns a view of m with the new shape; the element count
// must be unchanged.
func (m *Matrix) Reshape(rows, cols int) (*Matrix, error) {
	if rows*cols != len(m.Data) {
		return nil, fmt.Errorf("mat: reshape %dx%d to %dx%d: %w", m.Rows, m.Cols, rows, cols, ErrShape)
	}
	return &Matrix{Rows: rows, Cols: cols, Data: m.Data}, nil
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
// caller's goroutine. The value keeps per-chunk work comfortably above
// goroutine fork-join overhead (~1µs) at float64 FMA throughput.
const parChunkFlops = 1 << 15

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
// Large products are split row-wise across the parallel worker pool
// and, above a flop cutoff, run the cache-blocked packed kernel of
// gemm.go. Every output element is one strictly k-increasing
// accumulator chain regardless of path or worker count, so the result
// is bitwise identical for any worker count.
func Mul(dst, a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("mat: mul %dx%d by %dx%d: %w", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape)
	}
	if dst == nil {
		dst = New(a.Rows, b.Cols)
	} else if dst.Rows != a.Rows || dst.Cols != b.Cols {
		return nil, fmt.Errorf("mat: mul destination %dx%d, want %dx%d: %w", dst.Rows, dst.Cols, a.Rows, b.Cols, ErrShape)
	}
	if gemmBlocked(a.Rows, a.Cols, b.Cols) {
		if gemmOuter != nil {
			outerRows(dst, a.Data, a.Cols, 1, b.Data, a.Cols, a.Rows, false)
			return dst, nil
		}
		bt := grabPack(b.Rows * b.Cols)
		packTransposeInto(bt.data, b)
		if parallel.Workers() == 1 {
			// No closure is created on the serial path, keeping
			// steady-state calls allocation-free.
			gemmPackedRows(dst, a, bt.data, 0, a.Rows, false)
		} else {
			parallel.ForEachChunkMin(a.Rows, minChunkFor(a.Cols*b.Cols), func(lo, hi int) {
				gemmPackedRows(dst, a, bt.data, lo, hi, false)
			})
		}
		releasePack(bt)
		return dst, nil
	}
	if parallel.Workers() == 1 {
		mulRows(dst, a, b, 0, a.Rows)
		return dst, nil
	}
	parallel.ForEachChunkMin(a.Rows, minChunkFor(a.Cols*b.Cols), func(lo, hi int) {
		mulRows(dst, a, b, lo, hi)
	})
	return dst, nil
}

// mulRows computes output rows [lo,hi) of dst = a·b in ikj order,
// streaming through b and dst rows sequentially. Each dst row is
// zeroed before accumulation, so dst need not be cleared by callers.
func mulRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range drow {
			drow[j] = 0
		}
		for k, av := range arow {
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
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
	mulATBInto(dst, a, b, false)
	return dst, nil
}

// MulATBAcc computes dst += aᵀ·b: the accumulate variant of MulATB
// used by Dense.Backward to write straight into a parameter's gradient
// buffer (dst is typically a view aliasing Param.Grad). dst must be
// non-nil, a.Cols×b.Cols, and must not alias a or b. Each dst element
// receives exactly one add of a complete r-increasing product chain,
// matching MulATB-then-Axpy bitwise.
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
	mulATBInto(dst, a, b, true)
	return dst, nil
}

// mulATBInto dispatches aᵀ·b between the packed blocked kernel and the
// naive fallbacks. Both left and right operands are packed transposed
// (aᵀ is materialized so its rows are contiguous; bᵀ so each b column
// is contiguous), then the shared row kernel runs over dst rows.
func mulATBInto(dst, a, b *Matrix, acc bool) {
	serial := parallel.Workers() == 1
	if gemmBlocked(a.Cols, a.Rows, b.Cols) {
		if gemmOuter != nil {
			// Column i of a is row i of aᵀ: stride 1 across output
			// rows, a.Cols along the accumulation index.
			outerRows(dst, a.Data, 1, a.Cols, b.Data, a.Rows, a.Cols, acc)
			return
		}
		at := grabPack(a.Cols * a.Rows)
		packTransposeInto(at.data, a)
		bt := grabPack(b.Cols * b.Rows)
		packTransposeInto(bt.data, b)
		if serial {
			atM := Matrix{Rows: a.Cols, Cols: a.Rows, Data: at.data}
			gemmPackedRows(dst, &atM, bt.data, 0, a.Cols, acc)
		} else {
			atM := &Matrix{Rows: a.Cols, Cols: a.Rows, Data: at.data}
			parallel.ForEachChunkMin(a.Cols, minChunkFor(a.Rows*b.Cols), func(lo, hi int) {
				gemmPackedRows(dst, atM, bt.data, lo, hi, acc)
			})
		}
		releasePack(bt)
		releasePack(at)
		return
	}
	if acc {
		if serial {
			mulATBAccRange(dst, a, b, 0, a.Cols)
			return
		}
		parallel.ForEachChunkMin(a.Cols, minChunkFor(a.Rows*b.Cols), func(lo, hi int) {
			mulATBAccRange(dst, a, b, lo, hi)
		})
		return
	}
	if serial {
		mulATBRange(dst, a, b, 0, a.Cols)
		return
	}
	parallel.ForEachChunkMin(a.Cols, minChunkFor(a.Rows*b.Cols), func(lo, hi int) {
		mulATBRange(dst, a, b, lo, hi)
	})
}

// mulATBRange computes output rows [lo,hi) of dst = aᵀ·b, keeping the
// r-major accumulation order of the serial kernel. Rows [lo,hi) are
// zeroed before accumulation, so dst need not be cleared by callers.
func mulATBRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range drow {
			drow[j] = 0
		}
	}
	for r := 0; r < a.Rows; r++ {
		arow := a.Data[r*a.Cols : (r+1)*a.Cols]
		brow := b.Data[r*b.Cols : (r+1)*b.Cols]
		for i := lo; i < hi; i++ {
			av := arow[i]
			drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
			for j, bv := range brow {
				drow[j] += av * bv
			}
		}
	}
}

// mulATBAccRange adds rows [lo,hi) of aᵀ·b into dst. Each element's
// product chain accumulates in a register over r (same order as
// mulATBRange) and lands in dst with a single add.
func mulATBAccRange(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := range drow {
			var c float64
			for r := 0; r < a.Rows; r++ {
				c += a.Data[r*a.Cols+i] * b.Data[r*b.Cols+j]
			}
			drow[j] += c
		}
	}
}

// MulABT computes dst = a·bᵀ without materializing the transpose.
// Rows of the output are split across the worker pool; each is a set
// of independent dot products, so the result is bitwise identical to
// the serial path for any worker count.
func MulABT(dst, a, b *Matrix) (*Matrix, error) {
	if a.Cols != b.Cols {
		return nil, fmt.Errorf("mat: mulABT %dx%d by %dx%d: %w", a.Rows, a.Cols, b.Rows, b.Cols, ErrShape)
	}
	if dst == nil {
		dst = New(a.Rows, b.Rows)
	} else {
		if dst.Rows != a.Rows || dst.Cols != b.Rows {
			return nil, fmt.Errorf("mat: mulABT destination %dx%d, want %dx%d: %w", dst.Rows, dst.Cols, a.Rows, b.Rows, ErrShape)
		}
	}
	if gemmBlocked(a.Rows, a.Cols, b.Rows) {
		if gemmOuter != nil {
			bt := grabPack(b.Rows * b.Cols)
			packTransposeInto(bt.data, b)
			outerRows(dst, a.Data, a.Cols, 1, bt.data, a.Cols, a.Rows, false)
			releasePack(bt)
			return dst, nil
		}
		// b's rows are already contiguous, i.e. b.Data is (bᵀ)ᵀ packed
		// exactly as gemmPackedRows wants — no packing pass needed.
		if parallel.Workers() == 1 {
			gemmPackedRows(dst, a, b.Data, 0, a.Rows, false)
			return dst, nil
		}
		parallel.ForEachChunkMin(a.Rows, minChunkFor(a.Cols*b.Rows), func(lo, hi int) {
			gemmPackedRows(dst, a, b.Data, lo, hi, false)
		})
		return dst, nil
	}
	if parallel.Workers() == 1 {
		mulABTRows(dst, a, b, 0, a.Rows)
		return dst, nil
	}
	parallel.ForEachChunkMin(a.Rows, minChunkFor(b.Rows*b.Cols), func(lo, hi int) {
		mulABTRows(dst, a, b, lo, hi)
	})
	return dst, nil
}

// mulABTRows computes output rows [lo,hi) of dst = a·bᵀ as independent
// dot products.
func mulABTRows(dst, a, b *Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for j := 0; j < b.Rows; j++ {
			drow[j] = Dot(arow, b.Data[j*b.Cols:(j+1)*b.Cols])
		}
	}
}

// Transpose returns a newly allocated aᵀ.
func Transpose(a *Matrix) *Matrix {
	t := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			t.Data[j*t.Cols+i] = a.Data[i*a.Cols+j]
		}
	}
	return t
}

// Dot returns the inner product of equally sized vectors a and b.
func Dot(a, b []float64) float64 {
	var s float64
	for i, v := range a {
		s += v * b[i]
	}
	return s
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

// AddRowVector adds vector v to every row of m in place.
func AddRowVector(m *Matrix, v []float64) error {
	if len(v) != m.Cols {
		return fmt.Errorf("mat: add row vector len %d to %d cols: %w", len(v), m.Cols, ErrShape)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, b := range v {
			row[j] += b
		}
	}
	return nil
}

// ColSums returns the per-column sums of m.
func ColSums(m *Matrix) []float64 {
	return ColSumsInto(nil, m)
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

// Norm2 returns the Euclidean norm of x.
func Norm2(x []float64) float64 {
	return math.Sqrt(Dot(x, x))
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
