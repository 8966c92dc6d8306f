package mat

import (
	"testing"

	"targad/internal/parallel"
	"targad/internal/rng"
)

// withWorkers runs fn at the given worker count, restoring the
// previous count afterwards.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := parallel.SetWorkers(n)
	defer parallel.SetWorkers(prev)
	fn()
}

// gemmCase builds random operands large enough to cross the parallel
// cutoff (rows*inner*cols ≥ 2*parChunkFlops).
func gemmCase(seed int64, rows, inner, cols int) (a, b *Matrix) {
	r := rng.New(seed)
	a = New(rows, inner)
	b = New(inner, cols)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	return a, b
}

func bitwiseEqual(t *testing.T, name string, serial, par *Matrix) {
	t.Helper()
	if serial.Rows != par.Rows || serial.Cols != par.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", name, serial.Rows, serial.Cols, par.Rows, par.Cols)
	}
	for i, v := range serial.Data {
		if pv := par.Data[i]; pv != v {
			t.Fatalf("%s: element %d differs: serial %v, parallel %v", name, i, v, pv)
		}
	}
}

func TestMulParallelBitwiseIdentical(t *testing.T) {
	a, b := gemmCase(11, 257, 96, 64)
	var serial, par *Matrix
	withWorkers(t, 1, func() { serial, _ = Mul(nil, a, b) })
	for _, w := range []int{2, 3, 4, 8} {
		withWorkers(t, w, func() { par, _ = Mul(nil, a, b) })
		bitwiseEqual(t, "Mul", serial, par)
	}
}

func TestMulATBParallelBitwiseIdentical(t *testing.T) {
	r := rng.New(12)
	a := New(300, 80)
	b := New(300, 48)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	var serial, par *Matrix
	withWorkers(t, 1, func() { serial, _ = MulATB(nil, a, b) })
	for _, w := range []int{2, 4, 7} {
		withWorkers(t, w, func() { par, _ = MulATB(nil, a, b) })
		bitwiseEqual(t, "MulATB", serial, par)
	}
}

func TestMulABTParallelBitwiseIdentical(t *testing.T) {
	r := rng.New(13)
	a := New(200, 64)
	b := New(150, 64)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	var serial, par *Matrix
	withWorkers(t, 1, func() { serial, _ = MulABT(nil, a, b) })
	for _, w := range []int{2, 4, 8} {
		withWorkers(t, w, func() { par, _ = MulABT(nil, a, b) })
		bitwiseEqual(t, "MulABT", serial, par)
	}
}

// TestMulZeroEntries guards the zero-skip removal: matrices with exact
// zero entries (post-ReLU activations are mostly zeros) must multiply
// identically with and without parallelism.
func TestMulZeroEntries(t *testing.T) {
	r := rng.New(14)
	a := New(130, 70)
	b := New(70, 50)
	r.FillNormal(a.Data, 0, 1)
	r.FillNormal(b.Data, 0, 1)
	for i, v := range a.Data {
		if v < 0.3 { // ~60% exact zeros, like a sparse ReLU batch
			a.Data[i] = 0
		}
	}
	// Reference by explicit triple loop.
	want := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			want.Set(i, j, s)
		}
	}
	for _, w := range []int{1, 4} {
		withWorkers(t, w, func() {
			got, err := Mul(nil, a, b)
			if err != nil {
				t.Fatal(err)
			}
			for i := range want.Data {
				if d := got.Data[i] - want.Data[i]; d > 1e-9 || d < -1e-9 {
					t.Fatalf("workers=%d: element %d: got %v, want %v", w, i, got.Data[i], want.Data[i])
				}
			}
		})
	}
}

// TestSplitAboveCutoffBitwiseIdentical sizes each row-split kernel from
// parChunkFlops, so it splits into four chunks at four workers whatever
// the cutoff, and checks the split result against one worker bitwise.
// The fixed shapes of the tests above may fall under the cutoff and run
// serially at every worker count.
func TestSplitAboveCutoffBitwiseIdentical(t *testing.T) {
	const k, n = 64, 64
	rows := 4*minChunkFor(k*n) + 3
	a := New(rows, k)
	b := New(k, n)
	fillDet(a.Data, 21)
	fillDet(b.Data, 22)
	at := transposeRef(a) // k×rows: MulATB's output has rows rows
	bt := transposeRef(b) // n×k: MulABT multiplies by its transpose
	a32 := New32(rows, k)
	b32 := New32(k, n)
	fillDet32(a32.Data, 23)
	fillDet32(b32.Data, 24)
	const cents = 16
	x := New(4*minChunkFor(cents*k)+3, k)
	cent := New(cents, k)
	fillDet(x.Data, 25)
	fillDet(cent.Data, 26)

	run := func() (out []*Matrix, out32 *Matrix32, assign []int, dist []float64) {
		mul, err := Mul(nil, a, b)
		must(t, err)
		atb, err := MulATB(nil, at, b)
		must(t, err)
		abt, err := MulABT(nil, a, bt)
		must(t, err)
		out32, err = Mul32(nil, a32, b32)
		must(t, err)
		assign, dist = make([]int, x.Rows), make([]float64, x.Rows)
		NearestRows(x, cent, assign, dist)
		return []*Matrix{mul, atb, abt}, out32, assign, dist
	}
	var serial, par []*Matrix
	var serial32, par32 *Matrix32
	var sAssign, pAssign []int
	var sDist, pDist []float64
	withWorkers(t, 1, func() { serial, serial32, sAssign, sDist = run() })
	withWorkers(t, 4, func() { par, par32, pAssign, pDist = run() })
	for i, name := range []string{"Mul", "MulATB", "MulABT"} {
		bitwiseEqual(t, name, serial[i], par[i])
	}
	for i, v := range serial32.Data {
		if par32.Data[i] != v {
			t.Fatalf("Mul32: element %d differs: serial %v, parallel %v", i, v, par32.Data[i])
		}
	}
	for i := range sAssign {
		if pAssign[i] != sAssign[i] || pDist[i] != sDist[i] {
			t.Fatalf("NearestRows row %d: serial (%d, %v), parallel (%d, %v)", i, sAssign[i], sDist[i], pAssign[i], pDist[i])
		}
	}
}
