package autoencoder

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"testing"

	"targad/internal/faultinject"
	"targad/internal/mat"
	"targad/internal/metrics"
	"targad/internal/nn"
	"targad/internal/parallel"
	"targad/internal/rng"
)

// toyData builds normals clustered near two modes and anomalies far
// from both, in [0,1]^d.
func toyData(r *rng.RNG, nNormal, nAnom, d int) (normals, anomalies *mat.Matrix) {
	normals = mat.New(nNormal, d)
	for i := 0; i < nNormal; i++ {
		center := 0.3
		if i%2 == 0 {
			center = 0.6
		}
		for j := 0; j < d; j++ {
			v := r.Normal(center, 0.05)
			normals.Set(i, j, clamp(v))
		}
	}
	anomalies = mat.New(nAnom, d)
	for i := 0; i < nAnom; i++ {
		for j := 0; j < d; j++ {
			if j%3 == 0 {
				anomalies.Set(i, j, clamp(r.Normal(0.95, 0.03)))
			} else {
				anomalies.Set(i, j, clamp(r.Normal(0.45, 0.05)))
			}
		}
	}
	return normals, anomalies
}

func clamp(v float64) float64 {
	if v < 0 {
		return 0
	}
	if v > 1 {
		return 1
	}
	return v
}

func TestConfigValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := New(Config{InputDim: 0}, r); err == nil {
		t.Fatal("zero input dim must error")
	}
	ae, err := New(Default(8), r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ae.Train(context.Background(), nil, nil, r); err == nil {
		t.Fatal("nil unlabeled must error")
	}
	if _, err := ae.Train(context.Background(), mat.New(3, 5), nil, r); err == nil {
		t.Fatal("wrong unlabeled dim must error")
	}
	if _, err := ae.Train(context.Background(), mat.New(3, 8), mat.New(1, 5), r); err == nil {
		t.Fatal("wrong labeled dim must error")
	}
	if _, err := ae.ReconstructionErrors(mat.New(1, 5)); err == nil {
		t.Fatal("wrong score dim must error")
	}
}

func TestTrainingReducesLoss(t *testing.T) {
	r := rng.New(2)
	normals, _ := toyData(r, 200, 0, 10)
	cfg := Config{InputDim: 10, Hidden: []int{8, 4}, Eta: 0, LR: 5e-3, BatchSize: 32, Epochs: 15}
	ae, err := New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	losses, err := ae.Train(context.Background(), normals, nil, r)
	if err != nil {
		t.Fatal(err)
	}
	if len(losses) != 15 {
		t.Fatalf("expected 15 epoch losses, got %d", len(losses))
	}
	if losses[len(losses)-1] >= losses[0] {
		t.Fatalf("loss did not decrease: %v -> %v", losses[0], losses[len(losses)-1])
	}
}

func TestAnomaliesReconstructWorse(t *testing.T) {
	r := rng.New(3)
	normals, anomalies := toyData(r, 300, 60, 12)
	cfg := Config{InputDim: 12, Hidden: []int{8, 4}, Eta: 0, LR: 5e-3, BatchSize: 32, Epochs: 25}
	ae, err := New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ae.Train(context.Background(), normals, nil, r); err != nil {
		t.Fatal(err)
	}
	en, err := ae.ReconstructionErrors(normals)
	if err != nil {
		t.Fatal(err)
	}
	ea, err := ae.ReconstructionErrors(anomalies)
	if err != nil {
		t.Fatal(err)
	}
	if mat.Mean(ea) <= mat.Mean(en) {
		t.Fatalf("anomaly recon error %v not above normal %v", mat.Mean(ea), mat.Mean(en))
	}
}

func TestEtaPenaltyRaisesAnomalyError(t *testing.T) {
	// Eq. (1): with labeled anomalies and eta > 0 the AE should
	// separate anomalies (by recon-error ranking) at least as well as
	// without.
	r := rng.New(4)
	normals, anomalies := toyData(r, 300, 60, 12)
	labeled := mat.New(20, 12)
	for i := 0; i < 20; i++ {
		copy(labeled.Row(i), anomalies.Row(i))
	}
	rank := func(eta float64, seed int64) float64 {
		rr := rng.New(seed)
		cfg := Config{InputDim: 12, Hidden: []int{8, 4}, Eta: eta, LR: 5e-3, BatchSize: 32, Epochs: 25}
		ae, err := New(cfg, rr)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ae.Train(context.Background(), normals, labeled, rr); err != nil {
			t.Fatal(err)
		}
		en, _ := ae.ReconstructionErrors(normals)
		ea, _ := ae.ReconstructionErrors(anomalies.Clone())
		scores := append(en, ea...)
		labels := make([]bool, len(scores))
		for i := len(en); i < len(scores); i++ {
			labels[i] = true
		}
		v, err := metrics.AUROC(scores, labels)
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	with := rank(1, 10)
	if with < 0.9 {
		t.Fatalf("eta=1 separation AUROC = %v, want >= 0.9", with)
	}
}

func TestEncoderOutputsBottleneckWidth(t *testing.T) {
	r := rng.New(5)
	cfg := Config{InputDim: 10, Hidden: []int{8, 3}, LR: 1e-3, BatchSize: 16, Epochs: 1}
	ae, err := New(cfg, r)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(4, 10)
	r.FillUniform(x.Data, 0, 1)
	z, err := ae.Encoder(x)
	if err != nil {
		t.Fatal(err)
	}
	if z.Rows != 4 || z.Cols != 3 {
		t.Fatalf("Encoder output %dx%d, want 4x3", z.Rows, z.Cols)
	}
}

func TestReconstructInUnitRange(t *testing.T) {
	r := rng.New(6)
	ae, err := New(Config{InputDim: 6, Hidden: []int{4, 2}, LR: 1e-3, BatchSize: 8, Epochs: 1}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(10, 6)
	r.FillUniform(x.Data, 0, 1)
	if _, err := ae.Train(context.Background(), x, nil, r); err != nil {
		t.Fatal(err)
	}
	rec, err := ae.Reconstruct(x)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rec.Data {
		if v < 0 || v > 1 {
			t.Fatalf("sigmoid output out of range: %v", v)
		}
	}
}

func TestTrainPerCluster(t *testing.T) {
	r := rng.New(7)
	normals, _ := toyData(r, 120, 0, 8)
	clusters := [][]int{{}, {}}
	for i := 0; i < normals.Rows; i++ {
		clusters[i%2] = append(clusters[i%2], i)
	}
	cfg := Config{InputDim: 8, Hidden: []int{6, 3}, LR: 5e-3, BatchSize: 16, Epochs: 5}
	scores, err := TrainPerCluster(context.Background(), normals, nil, clusters, cfg, rng.New(8), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(scores) != normals.Rows {
		t.Fatalf("expected %d scores, got %d", normals.Rows, len(scores))
	}
	// Scores must be scattered back to the right rows, bitwise equal to
	// an autoencoder trained and scored on a copy of cluster 0 with the
	// cluster's own RNG stream (the first split of the parent).
	cr := rng.New(8).SplitN("ae", 0)
	ae, err := New(cfg, cr)
	if err != nil {
		t.Fatal(err)
	}
	sub := nn.Gather(normals, clusters[0])
	if _, err := ae.Train(context.Background(), sub, nil, cr); err != nil {
		t.Fatal(err)
	}
	es, err := ae.ReconstructionErrors(sub)
	if err != nil {
		t.Fatal(err)
	}
	for j, row := range clusters[0] {
		if es[j] != scores[row] {
			t.Fatalf("cluster 0 row %d: score %v, copied-cluster AE %v", row, scores[row], es[j])
		}
	}
	if _, err := TrainPerCluster(context.Background(), normals, nil, nil, cfg, r, nil); err == nil {
		t.Fatal("no clusters must error")
	}
	short := &ClusterResume{Errs: [][]float64{es[:3]}}
	if _, err := TrainPerCluster(context.Background(), normals, nil, clusters, cfg, rng.New(8), short); err == nil {
		t.Fatal("resumed errors that do not cover their cluster must error")
	}
}

// freshPerCluster is a reference TrainPerCluster that builds a fresh
// autoencoder with New for every cluster and every retry, trains the
// clusters in index order, and poisons the first batch of cluster
// faulted with faultinject.AEBatchNaN.
func freshPerCluster(t *testing.T, unlabeled, labeled *mat.Matrix, clusters [][]int, cfg Config, r *rng.RNG, faulted int) []float64 {
	t.Helper()
	defer faultinject.Reset()
	rngs := make([]*rng.RNG, len(clusters))
	for i := range rngs {
		rngs[i] = r.SplitN("ae", i)
	}
	scores := make([]float64, unlabeled.Rows)
	for i, rows := range clusters {
		if i == faulted {
			faultinject.Arm(faultinject.AEBatchNaN, 1)
		}
		cr := rngs[i]
		for attempt := 0; ; attempt++ {
			acfg := cfg
			acfg.LR = cfg.LR / float64(uint(1)<<uint(attempt))
			ae, err := New(acfg, cr)
			if err != nil {
				t.Fatal(err)
			}
			_, err = ae.train(context.Background(), unlabeled, rows, labeled, cr)
			var nerr *nn.NumericalError
			if errors.As(err, &nerr) && attempt < MaxTrainRetries {
				cr = cr.SplitN("retry", attempt+1)
				continue
			}
			if err != nil {
				t.Fatal(err)
			}
			ae.reconErrorsInto(scores, unlabeled, rows)
			break
		}
	}
	return scores
}

// TestTrainPerClusterReuseMatchesFresh pins the per-worker autoencoder
// reuse to a fresh New per cluster, bit for bit, at workers 1 and 2.
// The first batch trained is poisoned, so one cluster goes through a
// retry and its NaN-soaked network and optimizer are reinitialised and
// reused. Clusters start largest first, so the poisoned cluster is
// one of the first w: at workers 1 the largest, at workers 2 either of
// the two largest. The result must match the reference in which that
// cluster was the faulted one.
func TestTrainPerClusterReuseMatchesFresh(t *testing.T) {
	defer faultinject.Reset()
	const d = 10
	x := mat.New(150, d)
	rng.New(21).FillUniform(x.Data, 0, 1)
	lab := mat.New(4, d)
	rng.New(22).FillUniform(lab.Data, 0, 1)
	// Three clusters of 75, 50 and 25 rows, interleaved in the pool.
	owner := [6]int{0, 0, 0, 1, 1, 2}
	clusters := make([][]int, 3)
	for i := 0; i < x.Rows; i++ {
		clusters[owner[i%6]] = append(clusters[owner[i%6]], i)
	}
	cfg := Config{InputDim: d, Hidden: []int{8, 4}, Eta: 1, LR: 5e-3, BatchSize: 16, Epochs: 3}
	want := make([][]float64, len(clusters))
	for c := range clusters {
		want[c] = freshPerCluster(t, x, lab, clusters, cfg, rng.New(23), c)
	}
	for _, w := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", w), func(t *testing.T) {
			defer parallel.SetWorkers(parallel.SetWorkers(w))
			faultinject.Arm(faultinject.AEBatchNaN, 1)
			got, err := TrainPerCluster(context.Background(), x, lab, clusters, cfg, rng.New(23), nil)
			fired := faultinject.Fired(faultinject.AEBatchNaN)
			faultinject.Reset()
			if err != nil {
				t.Fatal(err)
			}
			if fired != 1 {
				t.Fatalf("the NaN batch fired %d times, want 1", fired)
			}
			match := -1
			for c := range want {
				if slices.Equal(got, want[c]) {
					match = c
				}
			}
			if match < 0 || match >= w {
				t.Fatalf("S^Rec matches the fresh-autoencoder reference with cluster %d retried (-1: none), want one of clusters 0..%d", match, w-1)
			}
		})
	}
}
