package autoencoder

import (
	"context"
	"runtime"
	"testing"

	"targad/internal/mat"
	"targad/internal/parallel"
	"targad/internal/rng"
)

// TestTrainEpochSteadyStateAllocs verifies the autoencoder's epoch
// loop allocates nothing once its workspaces are warm. Each Train call
// pays a fixed setup cost (batcher, loss slice), so the per-epoch cost
// is isolated by differencing a 1-epoch and a 6-epoch run of otherwise
// identical configuration: the extra five epochs must add zero
// allocations.
func TestTrainEpochSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)

	x := mat.New(128, 12)
	rng.New(1).FillUniform(x.Data, 0, 1)
	lab := mat.New(6, 12)
	rng.New(2).FillUniform(lab.Data, 0, 1)

	run := func(epochs int) func() {
		cfg := Config{InputDim: 12, Hidden: []int{8, 4}, Eta: 1, LR: 1e-3, BatchSize: 32, Epochs: epochs}
		ae, err := New(cfg, rng.New(3))
		if err != nil {
			t.Fatal(err)
		}
		// Warm the workspaces so AllocsPerRun sees only steady state.
		if _, err := ae.Train(context.Background(), x, lab, rng.New(4)); err != nil {
			t.Fatal(err)
		}
		return func() {
			if _, err := ae.Train(context.Background(), x, lab, rng.New(5)); err != nil {
				t.Fatal(err)
			}
		}
	}

	short := testing.AllocsPerRun(3, run(1))
	long := testing.AllocsPerRun(3, run(6))
	if extra := long - short; extra > 0.5 {
		t.Fatalf("5 extra epochs allocate %.1f times (1 epoch: %.1f, 6 epochs: %.1f), want 0", extra, short, long)
	}
}

// TestReconstructionErrorsChunked pins the chunked S^Rec pass to one
// whole-set forward pass, bit for bit, at set sizes around the chunk
// boundaries: a single row, BatchSize±1, and several chunks plus a
// short one. Both paths are checked — every row of a matrix (view
// chunks) and a row list into a larger pool (gathered chunks, errors
// stored at the pool rows).
func TestReconstructionErrorsChunked(t *testing.T) {
	const batch, d = 16, 9
	cfg := Config{InputDim: d, Hidden: []int{6, 3}, LR: 1e-3, BatchSize: batch, Epochs: 1}
	ae, err := New(cfg, rng.New(11))
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(12)
	for _, n := range []int{1, batch - 1, batch, batch + 1, 3*batch + 7} {
		x := mat.New(n, d)
		r.FillUniform(x.Data, 0, 1)
		whole := ae.net.Forward(x).Clone()
		want := make([]float64, n)
		for i := range want {
			want[i] = mat.SquaredDistance(x.Row(i), whole.Row(i))
		}

		got, err := ae.ReconstructionErrors(x)
		if err != nil {
			t.Fatal(err)
		}
		// The same rows, listed in reverse inside a pool with a spare
		// row at each end.
		pool := mat.New(n+2, d)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = n - i
			copy(pool.Row(rows[i]), x.Row(i))
		}
		scattered := make([]float64, pool.Rows)
		ae.reconErrorsInto(scattered, pool, rows)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d row %d: chunked %v, whole-set %v", n, i, got[i], want[i])
			}
			if s := scattered[rows[i]]; s != want[i] {
				t.Fatalf("n=%d row %d: listed-row chunk %v, whole-set %v", n, i, s, want[i])
			}
		}
	}
}

// TestTrainPerClusterBytesBatchBounded pins a cluster's working memory
// to its batch: growing a one-cluster pool from 4 to 8 batches may add
// only the bytes of the pool-sized outputs — the S^Rec slice and the
// batcher's shuffle permutation, 8 bytes a row each — not a copy of the
// cluster or row-sized forward workspaces.
func TestTrainPerClusterBytesBatchBounded(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const batch, d = 32, 24
	cfg := Config{InputDim: d, Hidden: []int{12, 6}, Eta: 1, LR: 1e-3, BatchSize: batch, Epochs: 2}
	lab := mat.New(5, d)
	rng.New(2).FillUniform(lab.Data, 0, 1)
	bytesFor := func(n int) uint64 {
		x := mat.New(n, d)
		rng.New(1).FillUniform(x.Data, 0, 1)
		rows := make([]int, n)
		for i := range rows {
			rows[i] = i
		}
		clusters := [][]int{rows}
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if _, err := TrainPerCluster(context.Background(), x, lab, clusters, cfg, rng.New(3), nil); err != nil {
				t.Fatal(err)
			}
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	small, large := bytesFor(4*batch), bytesFor(8*batch)
	const slack = 4 << 10
	allowed := uint64(2*8*(8*batch-4*batch)) + slack
	if large > small && large-small > allowed {
		t.Fatalf("TrainPerCluster allocates %d B at %d rows and %d B at %d rows: growth %d B exceeds %d B",
			small, 4*batch, large, 8*batch, large-small, allowed)
	}
}

// TestTrainPerClusterBytesReuseAutoencoder pins the per-worker
// autoencoder reuse: at workers=1, splitting one pool into 6 clusters
// instead of 2 may add per extra cluster only its RNG stream, batcher
// and loss slice, well under half an autoencoder (network, optimizer
// moments and batch workspaces), which a cluster that built its own
// would add.
func TestTrainPerClusterBytesReuseAutoencoder(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates")
	}
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const n, d = 240, 48
	cfg := Config{InputDim: d, Hidden: []int{24, 12}, Eta: 1, LR: 1e-3, BatchSize: 32, Epochs: 1}
	x := mat.New(n, d)
	rng.New(1).FillUniform(x.Data, 0, 1)
	lab := mat.New(5, d)
	rng.New(2).FillUniform(lab.Data, 0, 1)
	minBytes := func(fn func()) uint64 {
		best := ^uint64(0)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			fn()
			runtime.ReadMemStats(&after)
			best = min(best, after.TotalAlloc-before.TotalAlloc)
		}
		return best
	}
	split := func(k int) uint64 {
		clusters := make([][]int, k)
		for i := 0; i < n; i++ {
			clusters[i%k] = append(clusters[i%k], i)
		}
		return minBytes(func() {
			if _, err := TrainPerCluster(context.Background(), x, lab, clusters, cfg, rng.New(3), nil); err != nil {
				t.Fatal(err)
			}
		})
	}
	one := minBytes(func() {
		ae, err := New(cfg, rng.New(4))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ae.Train(context.Background(), x, lab, rng.New(5)); err != nil {
			t.Fatal(err)
		}
	})
	two, six := split(2), split(6)
	if six > two && (six-two)/4 >= one/2 {
		t.Fatalf("TrainPerCluster allocates %d B over 2 clusters and %d B over 6: %d B per extra cluster, want under half of the %d B one autoencoder costs",
			two, six, (six-two)/4, one)
	}
}
