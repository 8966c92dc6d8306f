package cluster

import (
	"context"
	"math"
	"testing"

	"targad/internal/mat"
	"targad/internal/rng"
)

// threeBlobs builds n points around three well-separated 2-D centers.
func threeBlobs(n int, r *rng.RNG) (*mat.Matrix, []int) {
	centers := [][]float64{{0, 0}, {10, 10}, {-10, 10}}
	x := mat.New(n, 2)
	truth := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % 3
		truth[i] = c
		x.Set(i, 0, r.Normal(centers[c][0], 0.5))
		x.Set(i, 1, r.Normal(centers[c][1], 0.5))
	}
	return x, truth
}

func TestKMeansRecoversSeparatedBlobs(t *testing.T) {
	r := rng.New(1)
	x, truth := threeBlobs(300, r)
	res, err := KMeans(context.Background(), x, Config{K: 3}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Each true blob should map to exactly one cluster.
	mapping := map[int]map[int]int{}
	for i, a := range res.Assignment {
		if mapping[truth[i]] == nil {
			mapping[truth[i]] = map[int]int{}
		}
		mapping[truth[i]][a]++
	}
	used := map[int]bool{}
	for blob, counts := range mapping {
		best, bestC := -1, 0
		total := 0
		for c, n := range counts {
			total += n
			if n > bestC {
				best, bestC = c, n
			}
		}
		if float64(bestC)/float64(total) < 0.99 {
			t.Fatalf("blob %d split across clusters: %v", blob, counts)
		}
		if used[best] {
			t.Fatalf("two blobs share cluster %d", best)
		}
		used[best] = true
	}
}

func TestKMeansInvariants(t *testing.T) {
	r := rng.New(2)
	x, _ := threeBlobs(120, r)
	res, err := KMeans(context.Background(), x, Config{K: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Assignment) != 120 {
		t.Fatalf("assignment length %d", len(res.Assignment))
	}
	total := 0
	for c, s := range res.Sizes {
		if s < 0 {
			t.Fatalf("negative cluster size %d", s)
		}
		total += s
		_ = c
	}
	if total != 120 {
		t.Fatalf("cluster sizes sum to %d, want 120", total)
	}
	if res.Inertia < 0 {
		t.Fatalf("negative inertia %v", res.Inertia)
	}
	// Every point is assigned to its nearest centroid.
	for i := 0; i < x.Rows; i++ {
		a := res.Assignment[i]
		da := mat.SquaredDistance(x.Row(i), res.Centroids.Row(a))
		for c := 0; c < res.K; c++ {
			if dc := mat.SquaredDistance(x.Row(i), res.Centroids.Row(c)); dc < da-1e-9 {
				t.Fatalf("point %d assigned to %d but %d is closer", i, a, c)
			}
		}
	}
}

func TestKMeansInertiaDecreasesWithK(t *testing.T) {
	r := rng.New(3)
	x, _ := threeBlobs(150, r)
	prev := math.Inf(1)
	for k := 1; k <= 5; k++ {
		res, err := KMeans(context.Background(), x, Config{K: k}, r.SplitN("k", k))
		if err != nil {
			t.Fatal(err)
		}
		// Allow small non-monotonicity from local optima, but the
		// trend must be downward.
		if res.Inertia > prev*1.1 {
			t.Fatalf("inertia at k=%d (%v) far above k=%d (%v)", k, res.Inertia, k-1, prev)
		}
		prev = res.Inertia
	}
}

func TestKMeansBadK(t *testing.T) {
	x := mat.New(5, 2)
	r := rng.New(4)
	if _, err := KMeans(context.Background(), x, Config{K: 0}, r); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := KMeans(context.Background(), x, Config{K: 6}, r); err == nil {
		t.Fatal("k>n must error")
	}
}

func TestKMeansKEqualsN(t *testing.T) {
	r := rng.New(5)
	x := mat.New(4, 2)
	r.FillUniform(x.Data, 0, 1)
	res, err := KMeans(context.Background(), x, Config{K: 4}, r)
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia > 1e-9 {
		t.Fatalf("k=n should reach ~zero inertia, got %v", res.Inertia)
	}
}

func TestKMeansDuplicatePoints(t *testing.T) {
	// All-identical data: must terminate and put everything in one
	// cluster's worth of identical centroids without dividing by zero.
	x := mat.New(20, 3)
	for i := range x.Data {
		x.Data[i] = 0.5
	}
	res, err := KMeans(context.Background(), x, Config{K: 3}, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	if res.Inertia != 0 {
		t.Fatalf("identical points inertia = %v", res.Inertia)
	}
}

func TestChooseKFindsElbow(t *testing.T) {
	r := rng.New(8)
	x, _ := threeBlobs(240, r)
	k, inertias, err := ChooseK(context.Background(), x, 1, 8, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(inertias) != 8 {
		t.Fatalf("expected 8 inertias, got %d", len(inertias))
	}
	if k < 2 || k > 4 {
		t.Fatalf("elbow picked k=%d for 3 blobs, want 2..4", k)
	}
}

func TestChooseKValidation(t *testing.T) {
	x := mat.New(10, 2)
	r := rng.New(9)
	if _, _, err := ChooseK(context.Background(), x, 0, 3, r); err == nil {
		t.Fatal("kMin=0 must error")
	}
	if _, _, err := ChooseK(context.Background(), x, 5, 3, r); err == nil {
		t.Fatal("kMax<kMin must error")
	}
	// Single k degenerates gracefully.
	k, _, err := ChooseK(context.Background(), x, 2, 2, r)
	if err != nil || k != 2 {
		t.Fatalf("single-candidate ChooseK = %d, %v", k, err)
	}
}
