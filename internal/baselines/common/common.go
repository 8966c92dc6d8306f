// Package common holds small helpers shared by the baseline
// implementations: ranking, prototypes, distance utilities, and the
// triplet-loss step REPEN and PUMAD train with.
package common

import (
	"math"
	"sort"

	"targad/internal/mat"
	"targad/internal/nn"
)

// ArgsortDesc returns indices ordering v from largest to smallest,
// stable on ties.
func ArgsortDesc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx
}

// Mean returns the column-wise mean of the given rows of x (all rows
// when idx is nil).
func Mean(x *mat.Matrix, idx []int) []float64 {
	out := make([]float64, x.Cols)
	if idx == nil {
		for i := 0; i < x.Rows; i++ {
			mat.Axpy(1, x.Row(i), out)
		}
		if x.Rows > 0 {
			mat.Scale(1/float64(x.Rows), out)
		}
		return out
	}
	for _, i := range idx {
		mat.Axpy(1, x.Row(i), out)
	}
	if len(idx) > 0 {
		mat.Scale(1/float64(len(idx)), out)
	}
	return out
}

// MinDistTo returns, for each row of x, the Euclidean distance to the
// nearest row of ref.
func MinDistTo(x, ref *mat.Matrix) []float64 {
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		best := math.Inf(1)
		for j := 0; j < ref.Rows; j++ {
			if d := mat.SquaredDistance(row, ref.Row(j)); d < best {
				best = d
			}
		}
		out[i] = math.Sqrt(best)
	}
	return out
}

// TripletStep accumulates into net the gradient of the hinge triplet
// loss max(0, margin + d(a,p) − d(a,n)), averaged over the rows of the
// three streams, through three forward passes.
func TripletStep(net *nn.MLP, anchor, pos, neg *mat.Matrix, margin float64) {
	za := net.Forward(anchor).Clone()
	zp := net.Forward(pos).Clone()
	zn := net.Forward(neg).Clone()
	n := float64(za.Rows)
	ga := mat.New(za.Rows, za.Cols)
	gp := mat.New(za.Rows, za.Cols)
	gn := mat.New(za.Rows, za.Cols)
	for i := 0; i < za.Rows; i++ {
		a, p, q := za.Row(i), zp.Row(i), zn.Row(i)
		dp := mat.SquaredDistance(a, p)
		dn := mat.SquaredDistance(a, q)
		if margin+dp-dn <= 0 {
			continue
		}
		// d/da = 2(a−p) − 2(a−n); d/dp = −2(a−p); d/dn = 2(a−n)
		gra, grp, grn := ga.Row(i), gp.Row(i), gn.Row(i)
		for j := range a {
			gra[j] = (2*(a[j]-p[j]) - 2*(a[j]-q[j])) / n
			grp[j] = -2 * (a[j] - p[j]) / n
			grn[j] = 2 * (a[j] - q[j]) / n
		}
	}
	// Backward through each stream; re-forward to restore layer
	// caches before each backward pass.
	net.Forward(anchor)
	net.Backward(ga)
	net.Forward(pos)
	net.Backward(gp)
	net.Forward(neg)
	net.Backward(gn)
}
