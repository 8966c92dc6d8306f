package feawad

import (
	"context"
	"errors"
	"math"
	"testing"

	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/rng"
)

func trainSet(r *rng.RNG, nU, nA, d int) *dataset.TrainSet {
	u := mat.New(nU, d)
	for i := range u.Data {
		u.Data[i] = r.Normal(0.4, 0.04)
	}
	a := mat.New(nA, d)
	for i := range a.Data {
		a.Data[i] = r.Normal(0.85, 0.04)
	}
	return &dataset.TrainSet{Labeled: a, LabeledType: make([]int, nA), NumTargetTypes: 1, Unlabeled: u}
}

func TestCompositeFeatureWidth(t *testing.T) {
	r := rng.New(1)
	ts := trainSet(r, 150, 10, 6)
	cfg := DefaultConfig(2)
	cfg.AEEpochs = 2
	cfg.Epochs = 2
	m := New(cfg)
	if err := m.Fit(context.Background(), ts); err != nil {
		t.Fatal(err)
	}
	feat, err := m.features(ts.Unlabeled)
	if err != nil {
		t.Fatal(err)
	}
	// [code ‖ residual vector ‖ scalar error]: code width comes from
	// the default bottleneck for d = 6 (min clamp 8), residual = 6,
	// error = 1.
	wantMin := 6 + 1 + 1
	if feat.Cols < wantMin {
		t.Fatalf("feature width %d, want >= %d", feat.Cols, wantMin)
	}
	// Last column is the Euclidean reconstruction error: must be the
	// norm of the residual block.
	code := feat.Cols - 6 - 1
	for i := 0; i < 3; i++ {
		row := feat.Row(i)
		var sq float64
		for _, v := range row[code : code+6] {
			sq += v * v
		}
		if math.Abs(math.Sqrt(sq)-row[feat.Cols-1]) > 1e-9 {
			t.Fatalf("row %d: error column %v != residual norm %v", i, row[feat.Cols-1], math.Sqrt(sq))
		}
	}
}

func TestDeviationOrdering(t *testing.T) {
	r := rng.New(3)
	ts := trainSet(r, 300, 15, 5)
	cfg := DefaultConfig(4)
	cfg.AEEpochs = 8
	cfg.Epochs = 12
	m := New(cfg)
	if err := m.Fit(context.Background(), ts); err != nil {
		t.Fatal(err)
	}
	probe := mat.New(2, 5)
	for j := 0; j < 5; j++ {
		probe.Set(0, j, 0.4)
		probe.Set(1, j, 0.85)
	}
	s, err := m.Score(context.Background(), probe)
	if err != nil {
		t.Fatal(err)
	}
	if s[1] <= s[0] {
		t.Fatalf("anomaly score %v not above normal %v", s[1], s[0])
	}
}

func TestRequiresLabels(t *testing.T) {
	m := New(DefaultConfig(1))
	if err := m.Fit(context.Background(), &dataset.TrainSet{Labeled: mat.New(0, 2), NumTargetTypes: 1, Unlabeled: mat.New(5, 2)}); err == nil {
		t.Fatal("must require labeled anomalies")
	}
}

// TestFitCanceledSkipsPretraining: a canceled context stops Fit in
// the autoencoder pretraining, before its first epoch, so no
// autoencoder is installed.
func TestFitCanceledSkipsPretraining(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	m := New(DefaultConfig(2))
	err := m.Fit(ctx, trainSet(rng.New(1), 150, 10, 6))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Fit on a canceled context: err = %v, want context.Canceled", err)
	}
	if m.ae != nil {
		t.Fatal("Fit on a canceled context trained the autoencoder")
	}
}
