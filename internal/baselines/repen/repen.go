// Package repen implements REPEN (Pang et al., "Learning
// representations of ultrahigh-dimensional data for random
// distance-based outlier detection", KDD 2018), the second
// unsupervised baseline: a small embedding network trained with a
// triplet hinge loss whose triplets are mined from the outlier scores
// of a random-distance detector, after which outlierness is the
// nearest-neighbor distance to a random subsample in embedding space.
package repen

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

// Config controls REPEN training.
type Config struct {
	// EmbedDim is the learned representation size (paper uses 20).
	EmbedDim int
	// Epochs and BatchSize control triplet training.
	Epochs    int
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// Margin is the triplet hinge margin.
	Margin float64
	// SubsampleSize is the random subsample used both for the
	// initial LeSiNN-style scores and for nearest-neighbor scoring.
	SubsampleSize int
	// CandidateFrac is the fraction of top-scored instances treated
	// as outlier candidates when mining triplets.
	CandidateFrac float64
	// Seed drives sampling and initialization.
	Seed int64
}

// DefaultConfig returns REPEN defaults.
func DefaultConfig(seed int64) Config {
	return Config{
		EmbedDim:      20,
		Epochs:        30,
		BatchSize:     128,
		LR:            1e-3,
		Margin:        1,
		SubsampleSize: 8,
		CandidateFrac: 0.05,
		Seed:          seed,
	}
}

// REPEN is the fitted model.
type REPEN struct {
	cfg Config
	net *nn.MLP
	// ref is the random reference subsample (in input space) used by
	// Score; its embedding is recomputed lazily.
	ref *mat.Matrix
}

// New returns an unfitted REPEN model.
func New(cfg Config) *REPEN {
	if cfg.EmbedDim <= 0 {
		cfg = DefaultConfig(cfg.Seed)
	}
	return &REPEN{cfg: cfg}
}

// Name implements detector.Detector.
func (m *REPEN) Name() string { return "REPEN" }

// Fit implements detector.Detector. REPEN is unsupervised: it trains
// only on the unlabeled pool.
func (m *REPEN) Fit(ctx context.Context, train *dataset.TrainSet) error {
	x := train.Unlabeled
	if x == nil || x.Rows < 4 {
		return errors.New("repen: too few training instances")
	}
	r := rng.New(m.cfg.Seed)

	// Phase 1: initial outlierness by random-distance (LeSiNN):
	// distance to the nearest neighbor within small random
	// subsamples, averaged over ensembles.
	init := lesinnScores(x, m.cfg.SubsampleSize, 16, r.Split("lesinn"))

	// Rank to form outlier candidates (top fraction) and inlier pool.
	order := common.ArgsortDesc(init)
	nCand := int(m.cfg.CandidateFrac * float64(x.Rows))
	if nCand < 2 {
		nCand = 2
	}
	cands := order[:nCand]
	inliers := order[nCand:]

	// Phase 2: triplet training — anchor inlier, positive inlier,
	// negative candidate outlier; hinge so that the anchor is closer
	// to the positive than to the outlier by Margin.
	net, err := nn.NewMLP(nn.MLPConfig{
		Dims:   []int{x.Cols, m.cfg.EmbedDim},
		Hidden: nn.ReLU,
		Output: nn.Identity,
		Init:   nn.XavierUniform,
	}, r.Split("net"))
	if err != nil {
		return err
	}
	m.net = net
	opt := nn.NewAdam(m.cfg.LR)
	steps := m.cfg.Epochs * (x.Rows / max(m.cfg.BatchSize, 1))
	if steps < m.cfg.Epochs {
		steps = m.cfg.Epochs
	}
	tr := r.Split("triplets")
	for s := 0; s < steps; s++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("repen: canceled: %w", err)
		}
		bs := m.cfg.BatchSize
		anchor := mat.New(bs, x.Cols)
		pos := mat.New(bs, x.Cols)
		neg := mat.New(bs, x.Cols)
		for i := 0; i < bs; i++ {
			copy(anchor.Row(i), x.Row(inliers[tr.Intn(len(inliers))]))
			copy(pos.Row(i), x.Row(inliers[tr.Intn(len(inliers))]))
			copy(neg.Row(i), x.Row(cands[tr.Intn(len(cands))]))
		}
		net.ZeroGrad()
		common.TripletStep(net, anchor, pos, neg, m.cfg.Margin)
		opt.Step(net.Params())
	}

	// Reference subsample for scoring.
	refIdx := r.Sample(x.Rows, min(m.cfg.SubsampleSize*16, x.Rows))
	m.ref = nn.Gather(x, refIdx)
	return nil
}

// Score implements detector.Detector: the distance to the nearest
// reference neighbor in embedding space.
func (m *REPEN) Score(ctx context.Context, x *mat.Matrix) ([]float64, error) {
	if m.net == nil {
		return nil, errors.New("repen: not fitted")
	}
	zref := m.net.Forward(m.ref).Clone()
	zx := m.net.Forward(x)
	out := make([]float64, x.Rows)
	for i := 0; i < x.Rows; i++ {
		row := zx.Row(i)
		best := math.Inf(1)
		for j := 0; j < zref.Rows; j++ {
			if d := mat.SquaredDistance(row, zref.Row(j)); d < best {
				best = d
			}
		}
		out[i] = math.Sqrt(best)
	}
	return out, nil
}

// lesinnScores returns ensemble nearest-neighbor-in-subsample
// distances: large when x has no close neighbors even in many random
// subsamples.
func lesinnScores(x *mat.Matrix, subsample, ensembles int, r *rng.RNG) []float64 {
	scores := make([]float64, x.Rows)
	if subsample > x.Rows {
		subsample = x.Rows
	}
	for e := 0; e < ensembles; e++ {
		idx := r.Sample(x.Rows, subsample)
		for i := 0; i < x.Rows; i++ {
			row := x.Row(i)
			best := math.Inf(1)
			for _, j := range idx {
				if j == i {
					continue
				}
				if d := mat.SquaredDistance(row, x.Row(j)); d < best {
					best = d
				}
			}
			if !math.IsInf(best, 1) {
				scores[i] += math.Sqrt(best)
			}
		}
	}
	for i := range scores {
		scores[i] /= float64(ensembles)
	}
	return scores
}
