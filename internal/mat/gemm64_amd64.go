//go:build !noasm

package mat

// Drivers for the float64 assembly kernels of kernels64_amd64.s. Both
// keep every output element one increasing-order chain of unfused
// multiply-adds (see the .s file), so their results are bitwise
// identical to the Go kernels they replace.

//go:noescape
func gemm4f64(a *float64, ars, aks int, b *float64, ldb int, c *float64, ldc, k, n int, acc bool)

//go:noescape
func gemm1f64(a *float64, aks int, b *float64, ldb int, c *float64, k, n int, acc bool)

//go:noescape
func sqdist4f64(x *float64, ldx int, ct *float64, ldct, d int, out *float64)

//go:noescape
func sqdist1f64(x, ct *float64, ldct, d int, out *float64)

// gemmOuterAsm is the assembly gemmOuter: it computes dst rows
// [lo,hi), columns [jc, jc+w) with gemm4f64 over row quads and gemm1f64
// over the rows left, B's panel at b with row stride ldb.
func gemmOuterAsm(dst *Matrix, a []float64, ars, aks int, b []float64, ldb, k, lo, hi, jc, w int, acc bool) {
	n := dst.Cols
	i := lo
	for ; i+gemmMR <= hi; i += gemmMR {
		gemm4f64(&a[i*ars], ars, aks, &b[0], ldb, &dst.Data[i*n+jc], n, k, w, acc)
	}
	for ; i < hi; i++ {
		gemm1f64(&a[i*ars], aks, &b[0], ldb, &dst.Data[i*n+jc], k, w, acc)
	}
}

// nearestAsm is the assembly nearestRange: ct holds the k centroids
// transposed (x.Cols rows of stride kp, kp = k rounded up to 8, padding
// lanes zero). Distances come eight centroids at a time and are folded
// in increasing centroid order with the same strict < as the Go loop,
// so ties and NaNs resolve identically.
func nearestAsm(x *Matrix, ct []float64, k, kp, lo, hi int, assign []int, dist []float64) {
	d := x.Cols
	var out [gemmMR * 8]float64
	i := lo
	for ; i < hi; i += gemmMR {
		rows := min(gemmMR, hi-i)
		var best [gemmMR]int
		bestD := [gemmMR]float64{inf, inf, inf, inf}
		for g := 0; g < kp; g += 8 {
			if rows == gemmMR {
				sqdist4f64(&x.Data[i*d], d, &ct[g], kp, d, &out[0])
			} else {
				for r := 0; r < rows; r++ {
					sqdist1f64(&x.Data[(i+r)*d], &ct[g], kp, d, &out[r*8])
				}
			}
			lanes := min(8, k-g)
			for r := 0; r < rows; r++ {
				for c := 0; c < lanes; c++ {
					if dd := out[r*8+c]; dd < bestD[r] {
						best[r], bestD[r] = g+c, dd
					}
				}
			}
		}
		for r := 0; r < rows; r++ {
			assign[i+r], dist[i+r] = best[r], bestD[r]
		}
	}
}
