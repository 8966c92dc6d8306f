package mat

import (
	"math"

	"targad/internal/parallel"
)

var inf = math.Inf(1)

// nearestOuter, when non-nil, is the vectorized nearestRange: it takes
// the centroids transposed and padded to kp (a multiple of 8) columns.
// Only simd_amd64.go sets it.
var nearestOuter func(x *Matrix, ct []float64, k, kp, lo, hi int, assign []int, dist []float64)

// NearestRows writes, for every row i of x, the index of the row of
// cent nearest to it in squared Euclidean distance into assign[i] and
// that distance into dist[i]. Candidates are scanned in increasing
// index with a strict <, so ties keep the lowest index and a row whose
// distances are all NaN or +Inf maps to 0 at +Inf. Rows split across
// the worker pool; every distance is one increasing-order chain of
// SquaredDistance, so results are bitwise identical for any worker
// count and kernel.
func NearestRows(x, cent *Matrix, assign []int, dist []float64) {
	k := cent.Rows
	var ct *packBuf
	kp := (k + 7) &^ 7
	if nearestOuter != nil && x.Cols > 0 {
		ct = grabPack(x.Cols * kp)
		clear(ct.data)
		for c := 0; c < k; c++ {
			for l, v := range cent.Row(c) {
				ct.data[l*kp+c] = v
			}
		}
	}
	parallel.ForEachChunkMin(x.Rows, minChunkFor(k*x.Cols), func(lo, hi int) {
		if ct != nil {
			nearestOuter(x, ct.data, k, kp, lo, hi, assign, dist)
		} else {
			nearestRange(x, cent, lo, hi, assign, dist)
		}
	})
	if ct != nil {
		releasePack(ct)
	}
}

// nearestRange is the portable kernel of NearestRows for rows [lo,hi).
func nearestRange(x, cent *Matrix, lo, hi int, assign []int, dist []float64) {
	for i := lo; i < hi; i++ {
		row := x.Row(i)
		best, bestD := 0, inf
		for c := 0; c < cent.Rows; c++ {
			if dd := SquaredDistance(row, cent.Row(c)); dd < bestD {
				best, bestD = c, dd
			}
		}
		assign[i] = best
		dist[i] = bestD
	}
}
