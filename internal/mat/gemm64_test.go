package mat

import (
	"fmt"
	"math"
	"testing"
)

// outerShapes covers every tail class of the f64 outer-product kernels:
// each k ∈ {1, 2, 7, 8, 9, 128} crosses rows mod 4 = 0–3 with
// n mod 8 = 0–7. Small products follow — every m < 6 against n < 10 at
// shallow k, the classifier head (1×16×6) and a 3×7×5 product with no
// full quad or column block — then a narrow output (no 8-column body
// at all), a deep product whose column panels end in a tail, and empty
// operands (k = 0 must zero dst, or leave it unchanged when
// accumulating; m = 0 and n = 0 must not reach a kernel).
func outerShapes() []struct{ m, k, n int } {
	var shapes []struct{ m, k, n int }
	for _, k := range []int{1, 2, 7, 8, 9, 128} {
		m0 := 128
		if k == 128 {
			m0 = 8
		}
		for dm := 0; dm < 4; dm++ {
			for dn := 0; dn < 8; dn++ {
				shapes = append(shapes, struct{ m, k, n int }{m0 + dm, k, 64 + dn})
			}
		}
	}
	for _, k := range []int{1, 2, 7} {
		for m := 1; m < 6; m++ {
			for _, n := range []int{1, 3, 6, 7, 9} {
				shapes = append(shapes, struct{ m, k, n int }{m, k, n})
			}
		}
	}
	return append(shapes,
		struct{ m, k, n int }{1, 16, 6},
		struct{ m, k, n int }{3, 7, 5},
		struct{ m, k, n int }{515, 128, 1},
		struct{ m, k, n int }{131, 128, 7},
		struct{ m, k, n int }{9, 1100, 71},
		struct{ m, k, n int }{5, 0, 9},
		struct{ m, k, n int }{0, 3, 4},
		struct{ m, k, n int }{3, 4, 0},
		struct{ m, k, n int }{0, 0, 0},
	)
}

// withGoKernels runs fn with the portable kernels swapped in.
func withGoKernels(fn func()) {
	restore := UsePortableKernels()
	defer restore()
	fn()
}

// TestOuterF64MatchesGoChain pins the assembly f64 kernels bit for bit
// to the Go chain reference (mulRef, and gemmOuterGo, the kernel the
// noasm build runs) for Mul, MulATB, MulATBAcc and MulABT across every
// tail. Destinations start out filled, so every element must be
// overwritten (or added to once). Without the assembly kernels both
// sides run Go and the test still checks gemmOuterGo against the
// reference.
func TestOuterF64MatchesGoChain(t *testing.T) {
	if KernelName() == "go" {
		t.Logf("f64 assembly kernels inactive: checking the Go kernel only")
	}
	for _, s := range outerShapes() {
		seed := uint64(s.m*7919 + s.k*131 + s.n)
		run := func(name string, want *Matrix, f func() *Matrix) {
			t.Helper()
			name = fmt.Sprintf("%s %dx%dx%d", name, s.m, s.k, s.n)
			requireBitwise(t, name, f(), want)
			var goOut *Matrix
			withGoKernels(func() { goOut = f() })
			requireBitwise(t, name+" (Go kernels)", goOut, want)
		}

		filled := func() *Matrix {
			d := New(s.m, s.n)
			fillDet(d.Data, seed+2)
			return d
		}
		a := New(s.m, s.k)
		b := New(s.k, s.n)
		fillDet(a.Data, seed)
		fillDet(b.Data, seed+1)
		run("Mul", mulRef(a, b), func() *Matrix {
			out, err := Mul(filled(), a, b)
			must(t, err)
			return out
		})

		bt := transposeRef(b)
		run("MulABT", mulRef(a, b), func() *Matrix {
			out, err := MulABT(filled(), a, bt)
			must(t, err)
			return out
		})

		at := transposeRef(a) // k×m, so atᵀ·b is m×n
		run("MulATB", mulRef(a, b), func() *Matrix {
			out, err := MulATB(filled(), at, b)
			must(t, err)
			return out
		})

		base := filled()
		wantAcc := mulRef(a, b)
		for i, c := range wantAcc.Data {
			wantAcc.Data[i] = base.Data[i] + c
		}
		run("MulATBAcc", wantAcc, func() *Matrix {
			out := base.Clone()
			_, err := MulATBAcc(out, at, b)
			must(t, err)
			return out
		})
	}
}

// TestNearestRowsMatchesGoChain pins the vectorized k-means assignment
// to the per-centroid SquaredDistance loop, bitwise, at k = 2–8 (plus
// multi-group k) and every row remainder, including duplicated
// centroids (ties keep the lowest index) and non-finite rows.
func TestNearestRowsMatchesGoChain(t *testing.T) {
	for _, d := range []int{1, 5, 196} {
		for _, k := range []int{2, 3, 4, 5, 6, 7, 8, 9, 17} {
			for _, n := range []int{36, 37, 38, 39} {
				x := New(n, d)
				cent := New(k, d)
				fillDet(x.Data, uint64(n*d+k))
				fillDet(cent.Data, uint64(k*d+3))
				copy(cent.Row(k-1), cent.Row(0)) // tie with centroid 0
				copy(x.Row(1), cent.Row(1))      // exact hit
				x.Row(2)[0] = math.NaN()
				x.Row(3)[d-1] = math.Inf(-1)

				want := make([]int, n)
				wantD := make([]float64, n)
				nearestRange(x, cent, 0, n, want, wantD)
				for _, portable := range []bool{false, true} {
					got := make([]int, n)
					gotD := make([]float64, n)
					if portable {
						withGoKernels(func() { NearestRows(x, cent, got, gotD) })
					} else {
						NearestRows(x, cent, got, gotD)
					}
					for i := range want {
						if got[i] != want[i] || math.Float64bits(gotD[i]) != math.Float64bits(wantD[i]) {
							t.Fatalf("d=%d k=%d n=%d portable=%v row %d: got (%d, %v), want (%d, %v)",
								d, k, n, portable, i, got[i], gotD[i], want[i], wantD[i])
						}
					}
				}
			}
		}
	}
}

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}
