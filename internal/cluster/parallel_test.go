package cluster

import (
	"context"
	"testing"

	"targad/internal/mat"
	"targad/internal/parallel"
	"targad/internal/rng"
)

func randomData(seed int64, n, d int) *mat.Matrix {
	x := mat.New(n, d)
	rng.New(seed).FillUniform(x.Data, 0, 1)
	return x
}

// runAt runs fn at the given worker count and restores the previous.
func runAt(t *testing.T, w int, fn func()) {
	t.Helper()
	prev := parallel.SetWorkers(w)
	defer parallel.SetWorkers(prev)
	fn()
}

func sameResult(t *testing.T, name string, a, b *Result) {
	t.Helper()
	if a.K != b.K || a.Inertia != b.Inertia || a.Iterations != b.Iterations {
		t.Fatalf("%s: (k,inertia,iters) = (%d,%v,%d) vs (%d,%v,%d)",
			name, a.K, a.Inertia, a.Iterations, b.K, b.Inertia, b.Iterations)
	}
	for i := range a.Assignment {
		if a.Assignment[i] != b.Assignment[i] {
			t.Fatalf("%s: assignment[%d] = %d vs %d", name, i, a.Assignment[i], b.Assignment[i])
		}
	}
	for i := range a.Centroids.Data {
		if a.Centroids.Data[i] != b.Centroids.Data[i] {
			t.Fatalf("%s: centroid element %d differs bitwise", name, i)
		}
	}
}

func TestKMeansParallelBitwiseIdentical(t *testing.T) {
	x := randomData(21, 1200, 24)
	var serial, par *Result
	runAt(t, 1, func() {
		var err error
		if serial, err = KMeans(context.Background(), x, Config{K: 5}, rng.New(7)); err != nil {
			t.Fatal(err)
		}
	})
	for _, w := range []int{2, 4, 8} {
		runAt(t, w, func() {
			var err error
			if par, err = KMeans(context.Background(), x, Config{K: 5}, rng.New(7)); err != nil {
				t.Fatal(err)
			}
		})
		sameResult(t, "KMeans", serial, par)
	}
}

func TestMiniBatchKMeansParallelBitwiseIdentical(t *testing.T) {
	x := randomData(22, 3000, 16)
	cfg := MiniBatchConfig{K: 4, BatchSize: 512, Iters: 40}
	var serial, par *Result
	runAt(t, 1, func() {
		var err error
		if serial, err = MiniBatchKMeans(context.Background(), x, cfg, rng.New(9)); err != nil {
			t.Fatal(err)
		}
	})
	runAt(t, 4, func() {
		var err error
		if par, err = MiniBatchKMeans(context.Background(), x, cfg, rng.New(9)); err != nil {
			t.Fatal(err)
		}
	})
	sameResult(t, "MiniBatchKMeans", serial, par)
}

func TestChooseKParallelBitwiseIdentical(t *testing.T) {
	x := randomData(23, 800, 12)
	var sk, pk int
	var si, pi []float64
	runAt(t, 1, func() {
		var err error
		if sk, si, err = ChooseK(context.Background(), x, 2, 6, rng.New(5)); err != nil {
			t.Fatal(err)
		}
	})
	runAt(t, 4, func() {
		var err error
		if pk, pi, err = ChooseK(context.Background(), x, 2, 6, rng.New(5)); err != nil {
			t.Fatal(err)
		}
	})
	if sk != pk {
		t.Fatalf("ChooseK picked k=%d serial, k=%d parallel", sk, pk)
	}
	for i := range si {
		if si[i] != pi[i] {
			t.Fatalf("inertia[%d] = %v serial, %v parallel", i, si[i], pi[i])
		}
	}
}

// TestChooseKRunOrderKeepsStreams pins ChooseK's results to its RNG
// split, not its run order: each k's inertia must equal a KMeans run
// in increasing k on the stream the k-th serial split hands out, and
// the chosen k must stay the one the elbow picks on these inertias, at
// one worker and at four.
func TestChooseKRunOrderKeepsStreams(t *testing.T) {
	const kMin, kMax, wantK = 2, 7, 4
	x := randomData(24, 600, 10)
	parent := rng.New(6)
	want := make([]float64, 0, kMax-kMin+1)
	var streams []*rng.RNG
	for k := kMin; k <= kMax; k++ {
		streams = append(streams, parent.SplitN("choosek", k))
	}
	for i, r := range streams {
		res, err := KMeans(context.Background(), x, Config{K: kMin + i}, r)
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, res.Inertia)
	}
	for _, w := range []int{1, 4} {
		runAt(t, w, func() {
			k, inertias, err := ChooseK(context.Background(), x, kMin, kMax, rng.New(6))
			if err != nil {
				t.Fatal(err)
			}
			if k != wantK {
				t.Fatalf("workers=%d: ChooseK picked k=%d, want %d", w, k, wantK)
			}
			for i := range want {
				if inertias[i] != want[i] {
					t.Fatalf("workers=%d: inertia for k=%d is %v, want %v", w, kMin+i, inertias[i], want[i])
				}
			}
		})
	}
}
