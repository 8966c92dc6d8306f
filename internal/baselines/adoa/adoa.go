// Package adoa implements ADOA (Zhang et al., "Anomaly detection with
// partially observed anomalies", WWW 2018 companion): the observed
// (labeled) anomalies are clustered into groups; unlabeled instances
// receive an isolation-based abnormality score and a similarity score
// to the nearest anomaly cluster; confident anomalies and confident
// normals are pseudo-labeled with confidence weights and a weighted
// multi-class classifier is trained over {anomaly clusters} ∪
// {normal}.
package adoa

import (
	"context"
	"errors"
	"fmt"
	"math"

	"targad/internal/baselines/common"
	"targad/internal/baselines/iforest"
	"targad/internal/cluster"
	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/rng"
)

// Config controls ADOA.
type Config struct {
	// AnomalyClusters is the number of clusters for the observed
	// anomalies (0 ⇒ the number of labeled target types, or 2).
	AnomalyClusters int
	// TopAnomalyFrac / TopNormalFrac are the pseudo-labeling
	// fractions of the unlabeled pool.
	TopAnomalyFrac float64
	TopNormalFrac  float64
	// Classifier training.
	Epochs    int
	BatchSize int
	LR        float64
	Seed      int64
}

// DefaultConfig returns ADOA defaults.
func DefaultConfig(seed int64) Config {
	return Config{
		TopAnomalyFrac: 0.05,
		TopNormalFrac:  0.5,
		Epochs:         30,
		BatchSize:      128,
		LR:             1e-3,
		Seed:           seed,
	}
}

// ADOA is the fitted model.
type ADOA struct {
	cfg Config
	net *nn.MLP
	kA  int // anomaly clusters
}

// New returns an unfitted ADOA model.
func New(cfg Config) *ADOA {
	if cfg.Epochs == 0 {
		cfg = DefaultConfig(cfg.Seed)
	}
	return &ADOA{cfg: cfg}
}

// Name implements detector.Detector.
func (m *ADOA) Name() string { return "ADOA" }

// Fit implements detector.Detector.
func (m *ADOA) Fit(ctx context.Context, train *dataset.TrainSet) error {
	if train.Labeled == nil || train.Labeled.Rows == 0 {
		return errors.New("adoa: requires labeled anomalies")
	}
	x := train.Unlabeled
	r := rng.New(m.cfg.Seed)

	// Step 1: cluster the observed anomalies.
	kA := m.cfg.AnomalyClusters
	if kA <= 0 {
		kA = train.NumTargetTypes
		if kA < 2 {
			kA = 2
		}
	}
	if kA > train.Labeled.Rows {
		kA = train.Labeled.Rows
	}
	m.kA = kA
	ares, err := cluster.KMeans(ctx, train.Labeled, cluster.Config{K: kA}, r.Split("acluster"))
	if err != nil {
		return err
	}

	// Step 2: isolation score + anomaly-cluster similarity per
	// unlabeled instance.
	forest := iforest.New(iforest.DefaultConfig(r.Int63()))
	if err := forest.Fit(ctx, train); err != nil {
		return err
	}
	iso, err := forest.Score(ctx, x)
	if err != nil {
		return err
	}
	sim := make([]float64, x.Rows) // similarity to nearest anomaly centroid
	simID := make([]int, x.Rows)   // which anomaly cluster
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		best := math.Inf(1)
		for c := 0; c < kA; c++ {
			if d := mat.SquaredDistance(row, ares.Centroids.Row(c)); d < best {
				best = d
				simID[i] = c
			}
		}
		sim[i] = math.Exp(-best)
	}
	// Total abnormality: isolation + similarity (both in (0,1]).
	score := make([]float64, x.Rows)
	for i := range score {
		score[i] = iso[i] + sim[i]
	}

	// Step 3: pseudo-label confident extremes.
	order := common.ArgsortDesc(score)
	nA := int(m.cfg.TopAnomalyFrac * float64(x.Rows))
	if nA < 1 {
		nA = 1
	}
	nN := int(m.cfg.TopNormalFrac * float64(x.Rows))
	if nN < 1 {
		nN = 1
	}
	anomIdx := order[:nA]
	normIdx := order[len(order)-nN:]

	// Step 4: weighted multi-class classifier over kA+1 classes
	// (anomaly clusters then normal).
	numClasses := kA + 1
	rowsX := train.Labeled.Rows + nA + nN
	xs := mat.New(rowsX, x.Cols)
	ys := mat.New(rowsX, numClasses)
	ws := make([]float64, rowsX)
	row := 0
	for i := 0; i < train.Labeled.Rows; i++ {
		copy(xs.Row(row), train.Labeled.Row(i))
		ys.Set(row, ares.Assignment[i], 1)
		ws[row] = 1
		row++
	}
	lo, hi := mat.MinMax(score)
	span := math.Max(hi-lo, 1e-12)
	for _, i := range anomIdx {
		copy(xs.Row(row), x.Row(i))
		ys.Set(row, simID[i], 1)
		ws[row] = (score[i] - lo) / span // more confident, higher weight
		row++
	}
	for _, i := range normIdx {
		copy(xs.Row(row), x.Row(i))
		ys.Set(row, kA, 1)
		ws[row] = (hi - score[i]) / span
		row++
	}

	net, err := nn.NewMLP(nn.MLPConfig{
		Dims:   []int{x.Cols, max(32, x.Cols/2), numClasses},
		Hidden: nn.ReLU,
		Output: nn.Identity,
		Init:   nn.HeNormal,
	}, r.Split("net"))
	if err != nil {
		return err
	}
	m.net = net
	opt := nn.NewAdam(m.cfg.LR)
	bat := nn.NewBatcher(rowsX, m.cfg.BatchSize, r.Split("bat"))
	for e := 0; e < m.cfg.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("adoa: canceled: %w", err)
		}
		for b := 0; b < bat.BatchesPerEpoch(); b++ {
			idx := bat.Next()
			xb := nn.Gather(xs, idx)
			yb := nn.Gather(ys, idx)
			wb := nn.GatherVec(ws, idx)
			net.ZeroGrad()
			logits := net.Forward(xb)
			_, grad := nn.SoftCrossEntropy(logits, yb, wb)
			net.Backward(grad)
			opt.Step(net.Params())
		}
	}
	return nil
}

// Score implements detector.Detector: 1 − P(normal), the probability
// mass on the anomaly clusters.
func (m *ADOA) Score(ctx context.Context, x *mat.Matrix) ([]float64, error) {
	if m.net == nil {
		return nil, errors.New("adoa: not fitted")
	}
	probs := nn.SoftmaxRows(m.net.Forward(x))
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = 1 - probs.At(i, m.kA)
	}
	return out, nil
}
