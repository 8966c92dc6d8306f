package mat

import (
	"errors"
	"math"
	"testing"

	"targad/internal/parallel"
)

// fillDet fills data with a deterministic, scale-varied pattern so
// accumulation-order differences would show up as bit differences.
func fillDet(data []float64, seed uint64) {
	s := seed*2862933555777941757 + 3037000493
	for i := range data {
		s = s*2862933555777941757 + 3037000493
		// Map to roughly [-4, 4) with enough mantissa variety that
		// re-associated sums would not round identically.
		data[i] = float64(int64(s>>11)) / (1 << 51) * 4
	}
}

// mulRef is an order-faithful serial reference for a·b: each element
// accumulates its k terms in increasing order from +0, exactly the
// chain contract of the gemmOuter kernels.
func mulRef(a, b *Matrix) *Matrix {
	out := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var c float64
			for k := 0; k < a.Cols; k++ {
				c += a.At(i, k) * b.At(k, j)
			}
			out.Set(i, j, c)
		}
	}
	return out
}

func transposeRef(a *Matrix) *Matrix {
	t := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			t.Set(j, i, a.At(i, j))
		}
	}
	return t
}

func requireBitwise(t *testing.T, name string, got, want *Matrix) {
	t.Helper()
	if got.Rows != want.Rows || got.Cols != want.Cols {
		t.Fatalf("%s: got %dx%d, want %dx%d", name, got.Rows, got.Cols, want.Rows, want.Cols)
	}
	for i, v := range got.Data {
		if math.Float64bits(v) != math.Float64bits(want.Data[i]) {
			t.Fatalf("%s: element %d = %v, want %v (bitwise)", name, i, v, want.Data[i])
		}
	}
}

// gemmShapes covers every remainder class of the row tiles (4 rows in
// assembly, 2 in Go) and of the column blocks, from single rows and
// shallow k up to deep and wide products.
var gemmShapes = []struct{ m, k, n int }{
	{1, 8, 64},    // single row
	{3, 7, 5},     // shallow k, no full quad or column block
	{64, 32, 64},  // exact tiles
	{65, 32, 64},  // 1-row remainder
	{66, 33, 65},  // 2-row + column remainders
	{67, 31, 130}, // 3-row remainder, wide
	{4, 128, 129}, // single quad, column remainder
	{5, 257, 64},  // deep
	{128, 8, 64},  // shallow k, many rows
	{128, 7, 64},
	{96, 7, 96}, // shallow k, square output
	{96, 8, 96},
}

func TestBlockedMulMatchesNaive(t *testing.T) {
	for _, s := range gemmShapes {
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		fillDet(a.Data, uint64(s.m*1000+s.k))
		fillDet(b.Data, uint64(s.k*1000+s.n))
		got, err := Mul(nil, a, b)
		if err != nil {
			t.Fatalf("Mul(%dx%d,%dx%d): %v", s.m, s.k, s.k, s.n, err)
		}
		requireBitwise(t, "Mul", got, mulRef(a, b))
	}
}

func TestBlockedMulATBMatchesNaive(t *testing.T) {
	for _, s := range gemmShapes {
		// aᵀ·b with a of shape k×m so the product is m×n.
		a := New(s.k, s.m)
		b := New(s.k, s.n)
		fillDet(a.Data, uint64(s.m*2000+s.k))
		fillDet(b.Data, uint64(s.k*2000+s.n))
		got, err := MulATB(nil, a, b)
		if err != nil {
			t.Fatalf("MulATB: %v", err)
		}
		requireBitwise(t, "MulATB", got, mulRef(transposeRef(a), b))
	}
}

func TestBlockedMulABTMatchesNaive(t *testing.T) {
	for _, s := range gemmShapes {
		a := New(s.m, s.k)
		b := New(s.n, s.k)
		fillDet(a.Data, uint64(s.m*3000+s.k))
		fillDet(b.Data, uint64(s.k*3000+s.n))
		got, err := MulABT(nil, a, b)
		if err != nil {
			t.Fatalf("MulABT: %v", err)
		}
		requireBitwise(t, "MulABT", got, mulRef(a, transposeRef(b)))
	}
}

// TestBlockedMulWorkerInvariance locks the bitwise-identical-across-
// worker-counts contract on a shape large enough to split across
// workers (also exercised under -race by the CI smoke).
func TestBlockedMulWorkerInvariance(t *testing.T) {
	a := New(130, 64)
	b := New(64, 96)
	fillDet(a.Data, 11)
	fillDet(b.Data, 13)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	base, err := Mul(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		parallel.SetWorkers(w)
		got, err := Mul(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, "Mul workers", got, base)
		gotT, err := MulATB(nil, transposeRef(a), b)
		if err != nil {
			t.Fatal(err)
		}
		requireBitwise(t, "MulATB workers", gotT, base)
	}
}

func TestMulATBAccAccumulates(t *testing.T) {
	for _, s := range gemmShapes {
		a := New(s.k, s.m)
		b := New(s.k, s.n)
		fillDet(a.Data, uint64(s.m*4000+s.k))
		fillDet(b.Data, uint64(s.k*4000+s.n))
		dst := New(s.m, s.n)
		fillDet(dst.Data, 99)
		want := dst.Clone()
		prod := mulRef(transposeRef(a), b)
		for i := range want.Data {
			want.Data[i] += prod.Data[i]
		}
		if _, err := MulATBAcc(dst, a, b); err != nil {
			t.Fatalf("MulATBAcc: %v", err)
		}
		requireBitwise(t, "MulATBAcc", dst, want)
	}
}

// TestMulATBAccParamView exercises the intended Dense.Backward use: dst
// is a view over a flat gradient buffer, accumulated into twice.
func TestMulATBAccParamView(t *testing.T) {
	grad := make([]float64, 6*4)
	a := New(9, 6)
	b := New(9, 4)
	fillDet(a.Data, 21)
	fillDet(b.Data, 22)
	view := &Matrix{Rows: 6, Cols: 4, Data: grad}
	if _, err := MulATBAcc(view, a, b); err != nil {
		t.Fatal(err)
	}
	if _, err := MulATBAcc(view, a, b); err != nil {
		t.Fatal(err)
	}
	prod := mulRef(transposeRef(a), b)
	for i := range grad {
		if want := prod.Data[i] + prod.Data[i]; grad[i] != want {
			t.Fatalf("grad[%d] = %v, want %v after two accumulations", i, grad[i], want)
		}
	}
}

func TestMulATBAccShapeErrors(t *testing.T) {
	a := New(4, 3)
	b := New(4, 2)
	if _, err := MulATBAcc(nil, a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("nil dst: err = %v, want ErrShape", err)
	}
	if _, err := MulATBAcc(New(3, 2), New(5, 3), b); !errors.Is(err, ErrShape) {
		t.Fatalf("inner mismatch: err = %v, want ErrShape", err)
	}
	if _, err := MulATBAcc(New(2, 2), a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("dst shape: err = %v, want ErrShape", err)
	}
}

func TestColSumsInto(t *testing.T) {
	m := New(3, 4)
	fillDet(m.Data, 31)
	want := ColSumsInto(nil, m)

	// Reuse overwrites stale contents rather than accumulating.
	dst := []float64{1e9, -1e9, 42, 7}
	got := ColSumsInto(dst, m)
	if &got[0] != &dst[0] {
		t.Fatal("ColSumsInto reallocated a correctly sized dst")
	}
	for j := range want {
		if got[j] != want[j] {
			t.Fatalf("col %d = %v, want %v", j, got[j], want[j])
		}
	}

	defer func() {
		if recover() == nil {
			t.Fatal("ColSumsInto accepted a wrong-length dst")
		}
	}()
	ColSumsInto(make([]float64, 3), m)
}

func TestEnsure(t *testing.T) {
	m := Ensure(nil, 3, 4)
	if m.Rows != 3 || m.Cols != 4 || len(m.Data) != 12 {
		t.Fatalf("Ensure(nil) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	base := &m.Data[0]
	// Shrinking and regrowing within capacity must keep the backing
	// array (the whole point of the workspace primitive).
	m = Ensure(m, 2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 || &m.Data[0] != base {
		t.Fatal("Ensure shrink reallocated or mis-shaped")
	}
	m = Ensure(m, 3, 4)
	if len(m.Data) != 12 || &m.Data[0] != base {
		t.Fatal("Ensure regrow within capacity reallocated")
	}
	m = Ensure(m, 5, 5)
	if m.Rows != 5 || m.Cols != 5 || len(m.Data) != 25 {
		t.Fatal("Ensure grow mis-shaped")
	}
}

// TestMulSteadyStateAllocs verifies the pack-buffer pool and the
// closure-free serial seam: at one worker, repeated products of every
// entry point — a wide Mul, a single scoring row, the classifier head's
// weight gradient and a small packed MulABT — allocate nothing once
// warmed up, on both kernel sets. The pooled case is left out under
// the race detector (see raceEnabled).
func TestMulSteadyStateAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	operands := func(ar, ac, br, bc int, seed uint64) (*Matrix, *Matrix) {
		a, b := New(ar, ac), New(br, bc)
		fillDet(a.Data, seed)
		fillDet(b.Data, seed+1)
		return a, b
	}
	wa, wb := operands(64, 32, 32, 64, 41)
	ra, rb := operands(1, 196, 196, 64, 43)
	ha, hb := operands(64, 16, 64, 6, 45)
	ta, tb := operands(8, 16, 6, 16, 47)
	wide, row, head, abt := New(64, 64), New(1, 64), New(16, 6), New(8, 6)
	cases := []struct {
		name   string
		pooled bool // packs through packPool
		run    func() (*Matrix, error)
	}{
		{"Mul 64x32x64", false, func() (*Matrix, error) { return Mul(wide, wa, wb) }},
		{"Mul 1x196x64", false, func() (*Matrix, error) { return Mul(row, ra, rb) }},
		{"MulATBAcc 16x6", false, func() (*Matrix, error) { return MulATBAcc(head, ha, hb) }},
		{"MulABT 8x16x6", true, func() (*Matrix, error) { return MulABT(abt, ta, tb) }},
	}
	check := func(kernel string) {
		for _, c := range cases {
			if c.pooled && raceEnabled {
				continue
			}
			if _, err := c.run(); err != nil {
				t.Fatal(err)
			}
			if n := testing.AllocsPerRun(20, func() {
				if _, err := c.run(); err != nil {
					t.Fatal(err)
				}
			}); n > 0 {
				t.Fatalf("%s on the %s kernels allocates %.1f times per call, want 0", c.name, kernel, n)
			}
		}
	}
	check(KernelName())
	withGoKernels(func() { check("go") })
}

// TestNegativeZeroChains pins the +0 chain start: an element whose
// every product is −0 is +0 (+0 + −0 = +0), and an Acc add of that
// chain turns a −0 dst into +0, on both kernel sets, across quad and
// column tails.
func TestNegativeZeroChains(t *testing.T) {
	negZero := math.Copysign(0, -1)
	for _, s := range []struct{ m, k, n int }{{5, 3, 9}, {4, 1, 8}, {1, 16, 6}, {9, 7, 17}} {
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		fillDet(a.Data, uint64(s.m+s.k))
		for i := range a.Data {
			a.Data[i] = math.Abs(a.Data[i]) + 1
		}
		for i := range b.Data {
			b.Data[i] = negZero
		}
		want := mulRef(a, b)
		for _, v := range want.Data {
			if math.Float64bits(v) != 0 {
				t.Fatalf("mulRef chain of −0 products = %v, want +0", v)
			}
		}
		at, bt := transposeRef(a), transposeRef(b)
		run := func(kernel string) {
			got, err := Mul(nil, a, b)
			must(t, err)
			requireBitwise(t, kernel+" Mul −0", got, want)
			got, err = MulATB(nil, at, b)
			must(t, err)
			requireBitwise(t, kernel+" MulATB −0", got, want)
			got, err = MulABT(nil, a, bt)
			must(t, err)
			requireBitwise(t, kernel+" MulABT −0", got, want)
			dst := New(s.m, s.n)
			for i := range dst.Data {
				dst.Data[i] = negZero
			}
			wantAcc := New(s.m, s.n)
			for i := range wantAcc.Data {
				wantAcc.Data[i] = dst.Data[i] + want.Data[i]
			}
			_, err = MulATBAcc(dst, at, b)
			must(t, err)
			requireBitwise(t, kernel+" MulATBAcc into −0", dst, wantAcc)
		}
		run(KernelName())
		withGoKernels(func() { run("go") })
	}
}
