// Package cluster implements k-means clustering with k-means++
// seeding, which TargAD's candidate-selection stage uses to partition
// the unlabeled pool into k normal-pattern groups (Algorithm 1,
// line 1), plus the elbow heuristic the paper uses to choose k.
package cluster

import (
	"context"
	"errors"
	"fmt"
	"math"

	"targad/internal/mat"
	"targad/internal/parallel"
	"targad/internal/rng"
)

// Result holds a completed k-means clustering.
type Result struct {
	K          int
	Centroids  *mat.Matrix // K×D
	Assignment []int       // per-instance cluster index in [0,K)
	Sizes      []int       // instances per cluster
	Inertia    float64     // Σ ‖x − c_assign(x)‖²
	Iterations int         // Lloyd iterations actually run
}

// Config controls KMeans.
type Config struct {
	K        int
	MaxIters int     // Lloyd iteration cap; default 100
	Tol      float64 // stop when inertia improves by less than Tol (relative); default 1e-6
}

// ErrBadK reports an invalid cluster count.
var ErrBadK = errors.New("cluster: k must be in [1, number of instances]")

// KMeans clusters the rows of x into cfg.K groups using k-means++
// initialization followed by Lloyd iterations. Cancellation is checked
// between Lloyd iterations; a canceled run returns ctx.Err().
func KMeans(ctx context.Context, x *mat.Matrix, cfg Config, r *rng.RNG) (*Result, error) {
	n, d := x.Rows, x.Cols
	if cfg.K < 1 || cfg.K > n {
		return nil, fmt.Errorf("%w: k=%d, n=%d", ErrBadK, cfg.K, n)
	}
	maxIters := cfg.MaxIters
	if maxIters <= 0 {
		maxIters = 100
	}
	tol := cfg.Tol
	if tol <= 0 {
		tol = 1e-6
	}

	cent := seedPlusPlus(x, cfg.K, r)
	assign := make([]int, n)
	sizes := make([]int, cfg.K)
	rowd := make([]float64, n)
	prev := math.Inf(1)
	var inertia float64
	var iter int
	for iter = 0; iter < maxIters; iter++ {
		if err := ctx.Err(); err != nil {
			return nil, fmt.Errorf("cluster: kmeans canceled at iteration %d: %w", iter, err)
		}
		// Assignment step: per-row nearest centroid, in parallel
		// chunks. sizes and inertia are folded serially in row order
		// afterwards, so the sum is bitwise identical for any worker
		// count.
		inertia = assignRows(x, cent, assign, rowd, sizes)
		// Update step: the centroid sums are cheap (O(n·d), vs the
		// assignment's O(n·k·d)) and stay serial to preserve the exact
		// row-order float64 accumulation of the reference path.
		cent.Zero()
		for i := 0; i < n; i++ {
			mat.Axpy(1, x.Row(i), cent.Row(assign[i]))
		}
		for c := 0; c < cfg.K; c++ {
			if sizes[c] == 0 {
				// Empty-cluster repair: reseed at the point farthest
				// from its current centroid.
				fi := farthestPoint(x, cent, assign)
				copy(cent.Row(c), x.Row(fi))
				continue
			}
			mat.Scale(1/float64(sizes[c]), cent.Row(c))
		}
		if prev-inertia < tol*math.Max(prev, 1) {
			iter++
			break
		}
		prev = inertia
	}

	// Final assignment against the last centroids (update step may
	// have moved them).
	inertia = assignRows(x, cent, assign, rowd, sizes)
	_ = d
	return &Result{
		K:          cfg.K,
		Centroids:  cent,
		Assignment: assign,
		Sizes:      sizes,
		Inertia:    inertia,
		Iterations: iter,
	}, nil
}

// assignRows writes each row's nearest centroid into assign and its
// squared distance into rowd (mat.NearestRows, split across the worker
// pool). sizes is recomputed and the returned inertia is folded
// serially in row order, so both are bitwise identical to the serial
// path for any worker count.
func assignRows(x, cent *mat.Matrix, assign []int, rowd []float64, sizes []int) float64 {
	mat.NearestRows(x, cent, assign, rowd)
	for i := range sizes {
		sizes[i] = 0
	}
	var inertia float64
	for i := 0; i < x.Rows; i++ {
		sizes[assign[i]]++
		inertia += rowd[i]
	}
	return inertia
}

// seedPlusPlus picks K initial centroids with the k-means++ scheme:
// the first uniformly, each next with probability proportional to the
// squared distance to the nearest already chosen centroid.
func seedPlusPlus(x *mat.Matrix, k int, r *rng.RNG) *mat.Matrix {
	n := x.Rows
	cent := mat.New(k, x.Cols)
	first := r.Intn(n)
	copy(cent.Row(0), x.Row(first))
	d2 := make([]float64, n)
	for i := 0; i < n; i++ {
		d2[i] = mat.SquaredDistance(x.Row(i), cent.Row(0))
	}
	for c := 1; c < k; c++ {
		pick := r.Choice(d2)
		copy(cent.Row(c), x.Row(pick))
		for i := 0; i < n; i++ {
			if dd := mat.SquaredDistance(x.Row(i), cent.Row(c)); dd < d2[i] {
				d2[i] = dd
			}
		}
	}
	return cent
}

// farthestPoint returns the index of the instance farthest from its
// assigned centroid.
func farthestPoint(x, cent *mat.Matrix, assign []int) int {
	best, bestD := 0, -1.0
	for i := 0; i < x.Rows; i++ {
		dd := mat.SquaredDistance(x.Row(i), cent.Row(assign[i]))
		if dd > bestD {
			best, bestD = i, dd
		}
	}
	return best
}

// ChooseK applies the elbow method over k ∈ [kMin, kMax]: it runs
// k-means for each k, then picks the k whose point on the
// (k, inertia) curve is farthest from the chord connecting the curve's
// endpoints — the standard geometric "knee" criterion. This mirrors
// the paper's statement that k was selected with the elbow method.
func ChooseK(ctx context.Context, x *mat.Matrix, kMin, kMax int, r *rng.RNG) (int, []float64, error) {
	if kMin < 1 || kMax < kMin {
		return 0, nil, fmt.Errorf("cluster: invalid k range [%d,%d]", kMin, kMax)
	}
	if kMax > x.Rows {
		kMax = x.Rows
	}
	// The restarts are independent; run them on the worker pool,
	// largest k first, since a run's cost grows with k and the longest
	// should start at once instead of last. The child RNGs are split
	// serially first — Split consumes the parent stream, so split order
	// must not depend on scheduling, and each k gets the same stream in
	// any run order.
	nk := kMax - kMin + 1
	rngs := make([]*rng.RNG, nk)
	for i := range rngs {
		rngs[i] = r.SplitN("choosek", kMin+i)
	}
	inertias := make([]float64, nk)
	errs := make([]error, nk)
	parallel.Map(nk, func(j int) {
		i := nk - 1 - j
		res, err := KMeans(ctx, x, Config{K: kMin + i}, rngs[i])
		if err != nil {
			errs[i] = err
			return
		}
		inertias[i] = res.Inertia
	})
	for _, err := range errs {
		if err != nil {
			return 0, nil, err
		}
	}
	if len(inertias) == 1 {
		return kMin, inertias, nil
	}
	// Perpendicular distance of each point from the first–last chord.
	x0, y0 := float64(kMin), inertias[0]
	x1, y1 := float64(kMax), inertias[len(inertias)-1]
	dx, dy := x1-x0, y1-y0
	norm := math.Hypot(dx, dy)
	bestK, bestDist := kMin, -1.0
	for i, in := range inertias {
		kx, ky := float64(kMin+i), in
		dist := math.Abs(dy*kx-dx*ky+x1*y0-y1*x0) / math.Max(norm, 1e-12)
		if dist > bestDist {
			bestK, bestDist = kMin+i, dist
		}
	}
	return bestK, inertias, nil
}
