// Package pumad implements PUMAD (Ju et al., "PUMAD: PU metric
// learning for anomaly detection", Information Sciences 2020):
// positive-unlabeled deep metric learning. Unlabeled instances far
// from every labeled anomaly (a distance-hashing-style filter) are
// taken as reliable negatives; a metric embedding is then trained with
// a triplet loss (anchor anomaly, positive anomaly, negative reliable
// normal), and the anomaly score contrasts distances to the anomaly
// and normal prototypes in embedding space.
package pumad

import (
	"context"
	"errors"
	"fmt"
	"math"

	"targad/internal/baselines/common"
	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/rng"
)

// Config controls PUMAD.
type Config struct {
	// EmbedDim is the metric-embedding width.
	EmbedDim int
	// Hidden is the embedding network hidden width.
	Hidden int
	// ReliableFrac is the fraction of the unlabeled pool, farthest
	// from the labeled anomalies, kept as reliable negatives.
	ReliableFrac float64
	// Epochs / LR / BatchSize control triplet optimization.
	Epochs    int
	LR        float64
	BatchSize int
	// Margin is the triplet margin.
	Margin float64
	Seed   int64
}

// DefaultConfig returns PUMAD defaults.
func DefaultConfig(seed int64) Config {
	return Config{
		EmbedDim:     32,
		Hidden:       64,
		ReliableFrac: 0.5,
		Epochs:       30,
		LR:           1e-3,
		BatchSize:    128,
		Margin:       1,
		Seed:         seed,
	}
}

// PUMAD is the fitted model.
type PUMAD struct {
	cfg    Config
	net    *nn.MLP
	protoA []float64 // anomaly prototype in embedding space
	protoN []float64 // normal prototype
}

// New returns an unfitted PUMAD model.
func New(cfg Config) *PUMAD {
	if cfg.Epochs == 0 {
		cfg = DefaultConfig(cfg.Seed)
	}
	return &PUMAD{cfg: cfg}
}

// Name implements detector.Detector.
func (m *PUMAD) Name() string { return "PUMAD" }

// Fit implements detector.Detector.
func (m *PUMAD) Fit(ctx context.Context, train *dataset.TrainSet) error {
	if train.Labeled == nil || train.Labeled.Rows == 0 {
		return errors.New("pumad: requires labeled anomalies")
	}
	x := train.Unlabeled
	r := rng.New(m.cfg.Seed)

	// PU filtering: distance of every unlabeled instance to its
	// nearest labeled anomaly; the farthest ReliableFrac are reliable
	// negatives. (The original uses LSH to make this sub-quadratic;
	// with tabular data at this scale exact distances are cheap.)
	dist := common.MinDistTo(x, train.Labeled)
	order := common.ArgsortDesc(dist)
	nRel := int(m.cfg.ReliableFrac * float64(x.Rows))
	if nRel < 2 {
		nRel = 2
	}
	reliable := order[:nRel]

	net, err := nn.NewMLP(nn.MLPConfig{
		Dims:   []int{x.Cols, m.cfg.Hidden, m.cfg.EmbedDim},
		Hidden: nn.ReLU,
		Output: nn.Identity,
		Init:   nn.HeNormal,
	}, r.Split("net"))
	if err != nil {
		return err
	}
	m.net = net

	opt := nn.NewAdam(m.cfg.LR)
	tr := r.Split("triplets")
	steps := m.cfg.Epochs * max(1, nRel/m.cfg.BatchSize)
	for s := 0; s < steps; s++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("pumad: canceled: %w", err)
		}
		bs := m.cfg.BatchSize
		anchor := mat.New(bs, x.Cols)
		pos := mat.New(bs, x.Cols)
		neg := mat.New(bs, x.Cols)
		for i := 0; i < bs; i++ {
			copy(anchor.Row(i), train.Labeled.Row(tr.Intn(train.Labeled.Rows)))
			copy(pos.Row(i), train.Labeled.Row(tr.Intn(train.Labeled.Rows)))
			copy(neg.Row(i), x.Row(reliable[tr.Intn(nRel)]))
		}
		net.ZeroGrad()
		common.TripletStep(net, anchor, pos, neg, m.cfg.Margin)
		opt.Step(net.Params())
	}

	// Prototypes for scoring.
	za := net.Forward(train.Labeled)
	m.protoA = colMean(za)
	zr := net.Forward(nn.Gather(x, reliable))
	m.protoN = colMean(zr)
	return nil
}

func colMean(z *mat.Matrix) []float64 {
	out := make([]float64, z.Cols)
	for i := 0; i < z.Rows; i++ {
		mat.Axpy(1, z.Row(i), out)
	}
	if z.Rows > 0 {
		mat.Scale(1/float64(z.Rows), out)
	}
	return out
}

// Score implements detector.Detector: distance-to-normal minus
// distance-to-anomaly prototype (larger ⇒ more anomalous).
func (m *PUMAD) Score(ctx context.Context, x *mat.Matrix) ([]float64, error) {
	if m.net == nil {
		return nil, errors.New("pumad: not fitted")
	}
	z := m.net.Forward(x)
	out := make([]float64, x.Rows)
	for i := range out {
		dN := math.Sqrt(mat.SquaredDistance(z.Row(i), m.protoN))
		dA := math.Sqrt(mat.SquaredDistance(z.Row(i), m.protoA))
		out[i] = dN - dA
	}
	return out, nil
}
