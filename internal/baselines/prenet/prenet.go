// Package prenet implements PReNet (Pang et al., "Deep
// weakly-supervised anomaly detection", KDD 2023): a pairwise relation
// network. Training samples instance pairs of three kinds —
// anomaly-anomaly, anomaly-unlabeled, unlabeled-unlabeled — and
// regresses an ordinal relation score (paper: 8 / 4 / 0) from the
// concatenated pair features. At inference an instance is paired with
// sampled labeled anomalies and sampled unlabeled instances; the mean
// predicted relation is its anomaly score.
package prenet

import (
	"context"
	"errors"
	"fmt"

	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/rng"
)

// Config controls PReNet.
type Config struct {
	// Hidden is the relation network hidden width.
	Hidden int
	// Steps is the number of pair-batch optimization steps.
	Steps int
	// BatchSize is the pair batch size.
	BatchSize int
	// LR is the Adam learning rate.
	LR float64
	// YAA, YAU, YUU are the ordinal relation labels of the three
	// pair kinds (paper: 8, 4, 0).
	YAA, YAU, YUU float64
	// ScorePairs is how many anomaly and unlabeled partners each test
	// instance is paired with when scoring.
	ScorePairs int
	Seed       int64
}

// DefaultConfig returns PReNet defaults.
func DefaultConfig(seed int64) Config {
	return Config{
		Hidden:     64,
		Steps:      1500,
		BatchSize:  128,
		LR:         1e-3,
		YAA:        8,
		YAU:        4,
		YUU:        0,
		ScorePairs: 16,
		Seed:       seed,
	}
}

// PReNet is the fitted model.
type PReNet struct {
	cfg      Config
	net      *nn.MLP
	anchorsA *mat.Matrix // sampled labeled anomalies for scoring
	anchorsU *mat.Matrix // sampled unlabeled instances for scoring
}

// New returns an unfitted PReNet model.
func New(cfg Config) *PReNet {
	if cfg.Steps == 0 {
		cfg = DefaultConfig(cfg.Seed)
	}
	return &PReNet{cfg: cfg}
}

// Name implements detector.Detector.
func (m *PReNet) Name() string { return "PReNet" }

// Fit implements detector.Detector.
func (m *PReNet) Fit(ctx context.Context, train *dataset.TrainSet) error {
	if train.Labeled == nil || train.Labeled.Rows == 0 {
		return errors.New("prenet: requires labeled anomalies")
	}
	x := train.Unlabeled
	r := rng.New(m.cfg.Seed)

	net, err := nn.NewMLP(nn.MLPConfig{
		Dims:   []int{2 * x.Cols, m.cfg.Hidden, 1},
		Hidden: nn.ReLU,
		Output: nn.Identity,
		Init:   nn.HeNormal,
	}, r.Split("net"))
	if err != nil {
		return err
	}
	m.net = net

	opt := nn.NewAdam(m.cfg.LR)
	pr := r.Split("pairs")
	pairs := mat.New(m.cfg.BatchSize, 2*x.Cols)
	targets := mat.New(m.cfg.BatchSize, 1)
	for s := 0; s < m.cfg.Steps; s++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("prenet: canceled: %w", err)
		}
		for i := 0; i < m.cfg.BatchSize; i++ {
			dst := pairs.Row(i)
			switch pr.Intn(3) {
			case 0: // anomaly-anomaly
				copy(dst[:x.Cols], train.Labeled.Row(pr.Intn(train.Labeled.Rows)))
				copy(dst[x.Cols:], train.Labeled.Row(pr.Intn(train.Labeled.Rows)))
				targets.Set(i, 0, m.cfg.YAA)
			case 1: // anomaly-unlabeled
				copy(dst[:x.Cols], train.Labeled.Row(pr.Intn(train.Labeled.Rows)))
				copy(dst[x.Cols:], x.Row(pr.Intn(x.Rows)))
				targets.Set(i, 0, m.cfg.YAU)
			default: // unlabeled-unlabeled
				copy(dst[:x.Cols], x.Row(pr.Intn(x.Rows)))
				copy(dst[x.Cols:], x.Row(pr.Intn(x.Rows)))
				targets.Set(i, 0, m.cfg.YUU)
			}
		}
		net.ZeroGrad()
		out := net.Forward(pairs)
		_, grad := nn.MSE(out, targets)
		net.Backward(grad)
		opt.Step(net.Params())
	}

	// Freeze scoring anchors.
	nA := min(m.cfg.ScorePairs, train.Labeled.Rows)
	m.anchorsA = nn.Gather(train.Labeled, r.Sample(train.Labeled.Rows, nA))
	nU := min(m.cfg.ScorePairs, x.Rows)
	m.anchorsU = nn.Gather(x, r.Sample(x.Rows, nU))
	return nil
}

// Score implements detector.Detector: the mean relation score of x
// paired with the anomaly anchors and the unlabeled anchors. A target
// anomaly relates strongly to anomaly anchors (→ YAA) and moderately
// to unlabeled ones (→ YAU), so its mean is high.
func (m *PReNet) Score(ctx context.Context, x *mat.Matrix) ([]float64, error) {
	if m.net == nil {
		return nil, errors.New("prenet: not fitted")
	}
	out := make([]float64, x.Rows)
	nPairs := m.anchorsA.Rows + m.anchorsU.Rows
	pair := mat.New(nPairs, 2*x.Cols)
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		p := 0
		for j := 0; j < m.anchorsA.Rows; j++ {
			dst := pair.Row(p)
			copy(dst[:x.Cols], row)
			copy(dst[x.Cols:], m.anchorsA.Row(j))
			p++
		}
		for j := 0; j < m.anchorsU.Rows; j++ {
			dst := pair.Row(p)
			copy(dst[:x.Cols], row)
			copy(dst[x.Cols:], m.anchorsU.Row(j))
			p++
		}
		pred := m.net.Forward(pair)
		var sum float64
		for j := 0; j < pred.Rows; j++ {
			sum += pred.At(j, 0)
		}
		out[i] = sum / float64(pred.Rows)
	}
	return out, nil
}
