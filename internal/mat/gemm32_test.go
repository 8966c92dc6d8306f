package mat

import (
	"errors"
	"math"
	"testing"

	"targad/internal/parallel"
)

// eps32 is the float32 machine epsilon (2⁻²³), the unit of the ulp
// bound below.
const eps32 = 1.0 / (1 << 23)

// fillDet32 fills an f32 slice with the same deterministic scale-varied
// pattern fillDet uses, rounded once to float32.
func fillDet32(data []float32, seed uint64) {
	tmp := make([]float64, len(data))
	fillDet(tmp, seed)
	for i, v := range tmp {
		data[i] = float32(v)
	}
}

// widen64 returns the exact float64 image of an f32 matrix (widening is
// lossless), the comparison basis for every tolerance test.
func widen64(m *Matrix32) *Matrix {
	return ToF64(nil, m)
}

// requireUlpBound checks every element of an f32 product against the
// float64 reference a·b within the stated bound: each element may be
// off by at most (k+8) ulps of its own magnitude budget Σ|a_ik·b_kj|.
// The k factor covers the worst-case growth of k sequential f32
// rounding errors; the +8 slack covers the FMA kernel's fold/reduce
// steps and keeps degenerate k=1 shapes off a zero bound. Both the
// strictly sequential Go kernels and the 16-chain FMA assembly sit far
// inside it (re-association only reduces error growth).
func requireUlpBound(t *testing.T, name string, got *Matrix32, a, b *Matrix) {
	t.Helper()
	ref := mulRef(a, b)
	if got.Rows != ref.Rows || got.Cols != ref.Cols {
		t.Fatalf("%s: got %dx%d, want %dx%d", name, got.Rows, got.Cols, ref.Rows, ref.Cols)
	}
	k := a.Cols
	for i := 0; i < got.Rows; i++ {
		for j := 0; j < got.Cols; j++ {
			var budget float64
			for l := 0; l < k; l++ {
				budget += math.Abs(a.At(i, l) * b.At(l, j))
			}
			bound := float64(k+8) * eps32 * budget
			if diff := math.Abs(float64(got.At(i, j)) - ref.At(i, j)); diff > bound {
				t.Fatalf("%s: element (%d,%d) off by %g, ulp bound %g (k=%d)", name, i, j, diff, bound, k)
			}
		}
	}
}

// gemm32Shapes extends gemmShapes with extra panel/tile remainder
// combinations around the blocked cutoff; every remainder class of the
// 4-row quad, the 8/16-lane vector widths, and the 64-column panel
// appears at least once.
var gemm32Shapes = []struct{ m, k, n int }{
	{1, 8, 64},    // single row, naive (below flop cutoff)
	{3, 7, 5},     // shallow k, naive
	{64, 32, 64},  // blocked, exact tiles
	{65, 32, 64},  // blocked, 1-row remainder
	{66, 33, 65},  // blocked, 2-row + k and panel remainders
	{67, 31, 130}, // blocked, 3-row remainder, 3 panels
	{4, 128, 129}, // blocked, single quad, panel remainder
	{5, 257, 64},  // blocked, k remainder 1 past the 16-lane body
	{128, 8, 64},  // blocked at minimum depth (one 8-lane step exactly)
	{128, 9, 64},  // blocked, k = 8-lane step + scalar tail
	{64, 17, 64},  // blocked, k = 16-lane step + scalar tail
	{64, 24, 64},  // blocked, k = 16-lane step + 8-lane step
	{128, 7, 64},  // naive: below minimum depth despite flops
	{556, 16, 6},  // blocked under the f32 cutoff only (classifier's final layer over a batch)
	{32, 16, 16},  // blocked right at the f32 flop cutoff (8192)
}

// TestMul32WithinUlpBoundOfF64 is the property test of the f32
// tolerance contract: for every tile/panel remainder shape, the f32
// product (whatever micro-kernel is active) stays within the stated
// ulp bound of the float64 reference. CI runs this both with the
// assembly kernels and, via -tags noasm, with the pure-Go fallback.
func TestMul32WithinUlpBoundOfF64(t *testing.T) {
	t.Logf("active f32 kernel: %s", KernelName())
	for _, s := range gemm32Shapes {
		a := New32(s.m, s.k)
		b := New32(s.k, s.n)
		fillDet32(a.Data, uint64(s.m*1000+s.k))
		fillDet32(b.Data, uint64(s.k*1000+s.n))
		got, err := Mul32(nil, a, b)
		if err != nil {
			t.Fatalf("Mul32(%dx%d,%dx%d): %v", s.m, s.k, s.k, s.n, err)
		}
		requireUlpBound(t, "Mul32", got, widen64(a), widen64(b))
	}
}

// TestMul32FallbackAgreesWithAsm pins both micro-kernel implementations
// to each other: the Go fallback is forced (the same code path the
// noasm tag and non-amd64 builds take), products are recomputed, and
// every element must stay within the ulp bound of the other kernel's
// result. On machines without the assembly kernels the two runs are
// identical and the test degenerates to a no-op check.
func TestMul32FallbackAgreesWithAsm(t *testing.T) {
	for _, s := range gemm32Shapes {
		a := New32(s.m, s.k)
		b := New32(s.k, s.n)
		fillDet32(a.Data, uint64(s.m*5000+s.k))
		fillDet32(b.Data, uint64(s.k*5000+s.n))

		active, err := Mul32(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		var fallback *Matrix32
		withGoKernels(func() { fallback, err = Mul32(nil, a, b) })
		if err != nil {
			t.Fatal(err)
		}

		a64, b64 := widen64(a), widen64(b)
		requireUlpBound(t, "Mul32 fallback", fallback, a64, b64)
		k := a.Cols
		for i := range active.Data {
			bound := float64(k+8) * eps32 * (math.Abs(float64(active.Data[i])) + math.Abs(float64(fallback.Data[i])) + 1)
			if diff := math.Abs(float64(active.Data[i]) - float64(fallback.Data[i])); diff > bound {
				t.Fatalf("shape %dx%dx%d: element %d asm=%v fallback=%v differ beyond %g",
					s.m, s.k, s.n, i, active.Data[i], fallback.Data[i], bound)
			}
		}
	}
}

// TestMul32WorkerInvariance: the row split never changes an element's
// accumulation chain, so for a fixed kernel the result is bitwise
// identical at any worker count.
func TestMul32WorkerInvariance(t *testing.T) {
	a := New32(130, 64)
	b := New32(64, 96)
	fillDet32(a.Data, 11)
	fillDet32(b.Data, 13)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	base, err := Mul32(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 3, 8} {
		parallel.SetWorkers(w)
		got, err := Mul32(nil, a, b)
		if err != nil {
			t.Fatal(err)
		}
		for i, v := range got.Data {
			if v != base.Data[i] {
				t.Fatalf("workers=%d: element %d = %v, want %v (bitwise)", w, i, v, base.Data[i])
			}
		}
	}
}

func TestMul32ShapeErrors(t *testing.T) {
	a := New32(4, 3)
	b := New32(2, 5)
	if _, err := Mul32(nil, a, b); !errors.Is(err, ErrShape) {
		t.Fatalf("inner mismatch: err = %v, want ErrShape", err)
	}
	if _, err := Mul32(New32(3, 3), a, New32(3, 5)); !errors.Is(err, ErrShape) {
		t.Fatalf("dst shape: err = %v, want ErrShape", err)
	}
}

// TestMul32SteadyStateAllocs verifies the f32 pack-buffer pool mirrors
// the f64 one: repeated blocked products allocate nothing once warm.
func TestMul32SteadyStateAllocs(t *testing.T) {
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	a := New32(64, 32)
	b := New32(32, 64)
	fillDet32(a.Data, 41)
	fillDet32(b.Data, 43)
	dst := New32(64, 64)
	if !gemmBlocked32(a.Rows, a.Cols, b.Cols) {
		t.Fatal("test shape must engage the blocked kernel")
	}
	if _, err := Mul32(dst, a, b); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(20, func() {
		if _, err := Mul32(dst, a, b); err != nil {
			t.Fatal(err)
		}
	}); n > 0 {
		t.Fatalf("steady-state blocked Mul32 allocates %.1f times per call, want 0", n)
	}
}

func BenchmarkMul32(b *testing.B) {
	sizes := []struct {
		name    string
		m, k, n int
	}{
		{"128x196x64", 128, 196, 64},
		{"1024x1024x1024", 1024, 1024, 1024},
	}
	for _, sz := range sizes {
		a64 := New(sz.m, sz.k)
		w64 := New(sz.k, sz.n)
		fillDet(a64.Data, 1)
		fillDet(w64.Data, 2)
		a32, w32 := ToF32(nil, a64), ToF32(nil, w64)
		d64, d32 := New(sz.m, sz.n), New32(sz.m, sz.n)
		b.Run(sz.name+"/f64", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Mul(d64, a64, w64); err != nil {
					b.Fatal(err)
				}
			}
		})
		b.Run(sz.name+"/f32", func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := Mul32(d32, a32, w32); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
