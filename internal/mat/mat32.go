// Float32 matrix substrate for the inference-only compute path.
//
// Training stays float64 end to end — gradcheck parity and the bitwise
// checkpoint/fixture guarantees depend on it — but serving never needs
// more than float32: the scores are probabilities read to a handful of
// significant digits, and halving the element width halves the memory
// bandwidth through the packed GEMM. Matrix32 mirrors Matrix's layout
// and buffer-ownership contract (see the package comment); the f32
// kernels live in gemm32.go and, on capable amd64 hardware, in
// kernels_amd64.s.
//
// Precision contract: nothing in the f32 path is bitwise-pinned. Results
// are tolerance-bounded against the float64 reference (see
// DESIGN.md "Numerical precision model" and the property tests in
// gemm32_test.go); the float64 kernels above are untouched and keep
// their bitwise guarantees.
package mat

import (
	"fmt"
	"math"
)

// Matrix32 is a dense row-major matrix of float32 values, the inference
// twin of Matrix. The zero value is an empty 0×0 matrix.
type Matrix32 struct {
	Rows, Cols int
	Data       []float32
}

// New32 returns a zeroed rows×cols float32 matrix.
func New32(rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// At returns the element at row i, column j.
func (m *Matrix32) At(i, j int) float32 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Matrix32) Set(i, j int, v float32) { m.Data[i*m.Cols+j] = v }

// Row returns a mutable view of row i (no copy).
func (m *Matrix32) Row(i int) []float32 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Matrix32) Clone() *Matrix32 {
	c := New32(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// Ensure32 is Ensure for float32 matrices: it returns a rows×cols
// matrix backed by m's storage when capacity allows, allocating a fresh
// backing array otherwise. m may be nil; the contents are unspecified
// and callers must fully overwrite them.
func Ensure32(m *Matrix32, rows, cols int) *Matrix32 {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("mat: negative dimensions %dx%d", rows, cols))
	}
	n := rows * cols
	if m == nil {
		return &Matrix32{Rows: rows, Cols: cols, Data: make([]float32, n)}
	}
	if cap(m.Data) < n {
		m.Data = make([]float32, n)
	}
	m.Data = m.Data[:n]
	m.Rows, m.Cols = rows, cols
	return m
}

// ToF32 narrows src into dst (grown via Ensure32, nil allocates) and
// returns it. Values outside float32 range overflow to ±Inf — callers
// converting model parameters must guard with nn's finiteness checks
// first; request-path conversions tolerate it because the downstream
// softmax saturates rather than poisoning neighbours.
func ToF32(dst *Matrix32, src *Matrix) *Matrix32 {
	dst = Ensure32(dst, src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = float32(v)
	}
	return dst
}

// ToF64 widens src into dst (grown via Ensure, nil allocates) and
// returns it. Widening is exact: every float32 is representable as a
// float64.
func ToF64(dst *Matrix, src *Matrix32) *Matrix {
	dst = Ensure(dst, src.Rows, src.Cols)
	for i, v := range src.Data {
		dst.Data[i] = float64(v)
	}
	return dst
}

// Softmax32 writes the softmax of logits into out (out may alias
// logits). The max-subtraction, exponentials, and normalizing sum run
// in float64, keeping the only f32 rounding in the stored
// probabilities themselves; the exponential is expNeg, whose error is
// below one float32 ulp and therefore invisible after the narrowing.
func Softmax32(out, logits []float32) {
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
		e := expNeg(float64(v) - float64(m))
		out[i] = float32(e)
		s += e
	}
	inv := 1 / s
	for i, v := range out {
		out[i] = float32(float64(v) * inv)
	}
}

// SoftmaxHeadMax32 returns the maximum softmax probability among the
// first m entries of logits without materializing the distribution —
// the score-only fast path of float32 inference. The arithmetic
// mirrors Softmax32 followed by ArgMax over the widened head EXACTLY
// (float64 exponentials summed wide, the winning exponential narrowed
// to float32, one reciprocal multiply, narrowed again), so the result
// is bitwise-identical to that two-step computation; a test pins the
// equivalence. Monotonicity makes the shortcut exact: the largest
// narrowed probability comes from the largest narrowed exponential.
func SoftmaxHeadMax32(logits []float32, m int) float64 {
	mx := logits[0]
	for _, v := range logits[1:] {
		if v > mx {
			mx = v
		}
	}
	var s float64
	var best float32
	for i, v := range logits {
		e := expNeg(float64(v) - float64(mx))
		s += e
		if i < m {
			if f := float32(e); f > best {
				best = f
			}
		}
	}
	inv := 1 / s
	return float64(float32(float64(best) * inv))
}

// expNeg returns e^x for x ≤ 0 (the post-max-subtraction softmax
// range) with relative error below 2⁻²³ — under one ulp of the float32
// the result is narrowed to, faster than math.Exp. The classic
// reduction: x = n·ln2 + r with |r| ≤ ln2/2, a degree-6 polynomial for
// e^r in Estrin form (three short dependency chains instead of
// Horner's one long one; worst-case truncation error r⁷/5040 ≈ 1.2e-7
// at |r| = 0.347, and the single-constant reduction adds only
// n·ulp(ln2) ≈ 1e-14 — both invisible at float32 precision), then
// scaling by 2^n via direct exponent-bit construction. Inputs below
// -700 return 0 — exp(-700) ≈ 1e-304 is invisible in any softmax sum,
// and the cutoff stays clear of the subnormal range the bit
// construction can't reach. NaN propagates, matching math.Exp.
func expNeg(x float64) float64 {
	if !(x > -700) {
		if math.IsNaN(x) {
			return x
		}
		return 0
	}
	const (
		log2e = 1.44269504088896340736
		ln2   = 0.693147180559945309417
	)
	n := math.Floor(x*log2e + 0.5)
	r := x - n*ln2
	r2 := r * r
	r4 := r2 * r2
	p := (1 + r) + r2*(0.5+r*(1.0/6)) + r4*((1.0/24+r*(1.0/120))+r2*(1.0/720))
	return p * math.Float64frombits(uint64(1023+int64(n))<<52)
}
