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

import "fmt"

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
