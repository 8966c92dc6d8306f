// Package feawad implements FEAWAD (Zhou et al., "Feature encoding
// with autoencoders for weakly supervised anomaly detection",
// TNNLS 2021): an autoencoder trained on the (mostly normal) unlabeled
// pool provides a composite representation — bottleneck code,
// reconstruction residual vector, and reconstruction error — that
// feeds a scoring network trained with a deviation-style loss on
// labeled anomalies vs unlabeled data.
package feawad

import (
	"context"
	"errors"
	"fmt"
	"math"

	"targad/internal/autoencoder"
	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/rng"
)

// Config controls FEAWAD.
type Config struct {
	// AEEpochs / AELR / AEBatch control autoencoder pretraining.
	AEEpochs int
	AELR     float64
	AEBatch  int
	// Epochs / LR / BatchSize control the scorer.
	Epochs    int
	LR        float64
	BatchSize int
	// Margin is the deviation margin a labeled anomaly's score must
	// exceed.
	Margin float64
	Seed   int64
	// EpochHook, when non-nil, runs after each scorer epoch (used by
	// the Fig. 3b convergence analysis).
	EpochHook func(epoch int)
}

// DefaultConfig returns FEAWAD defaults.
func DefaultConfig(seed int64) Config {
	return Config{
		AEEpochs:  20,
		AELR:      1e-3,
		AEBatch:   256,
		Epochs:    30,
		LR:        1e-3,
		BatchSize: 128,
		Margin:    5,
		Seed:      seed,
	}
}

// FEAWAD is the fitted model.
type FEAWAD struct {
	cfg    Config
	ae     *autoencoder.AE
	scorer *nn.MLP
	hDim   int
}

// New returns an unfitted FEAWAD model.
func New(cfg Config) *FEAWAD {
	if cfg.Epochs == 0 {
		cfg = DefaultConfig(cfg.Seed)
	}
	return &FEAWAD{cfg: cfg}
}

// Name implements detector.Detector.
func (m *FEAWAD) Name() string { return "FEAWAD" }

// Fit implements detector.Detector.
func (m *FEAWAD) Fit(ctx context.Context, train *dataset.TrainSet) error {
	if train.Labeled == nil || train.Labeled.Rows == 0 {
		return errors.New("feawad: requires labeled anomalies")
	}
	x := train.Unlabeled
	r := rng.New(m.cfg.Seed)

	// Unsupervised AE pretraining (η = 0: plain reconstruction).
	aeCfg := autoencoder.Config{
		InputDim:  x.Cols,
		Eta:       0,
		LR:        m.cfg.AELR,
		BatchSize: m.cfg.AEBatch,
		Epochs:    m.cfg.AEEpochs,
	}
	ae, err := autoencoder.New(aeCfg, r.Split("ae"))
	if err != nil {
		return err
	}
	if _, err := ae.Train(ctx, x, nil, r.Split("aetrain")); err != nil {
		return fmt.Errorf("feawad: pretraining: %w", err)
	}
	m.ae = ae

	// Composite features for the full training pool.
	featU, err := m.features(x)
	if err != nil {
		return err
	}
	featA, err := m.features(train.Labeled)
	if err != nil {
		return err
	}
	m.hDim = featU.Cols

	scorer, err := nn.NewMLP(nn.MLPConfig{
		Dims:   []int{featU.Cols, 64, 1},
		Hidden: nn.ReLU,
		Output: nn.Identity,
		Init:   nn.HeNormal,
	}, r.Split("scorer"))
	if err != nil {
		return err
	}
	m.scorer = scorer

	opt := nn.NewAdam(m.cfg.LR)
	batU := nn.NewBatcher(featU.Rows, m.cfg.BatchSize/2, r.Split("bu"))
	batA := nn.NewBatcher(featA.Rows, m.cfg.BatchSize/2, r.Split("ba"))
	for e := 0; e < m.cfg.Epochs; e++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("feawad: canceled: %w", err)
		}
		for b := 0; b < batU.BatchesPerEpoch(); b++ {
			iu := batU.Next()
			ia := batA.Next()
			xb := dataset.MustVStack(nn.Gather(featU, iu), nn.Gather(featA, ia))
			scorer.ZeroGrad()
			out := scorer.Forward(xb)
			grad := mat.New(out.Rows, 1)
			n := float64(out.Rows)
			for i := 0; i < out.Rows; i++ {
				s := out.At(i, 0)
				if i < len(iu) {
					// Unlabeled ≈ normal: pull |s| to zero.
					if s > 0 {
						grad.Set(i, 0, 1/n)
					} else if s < 0 {
						grad.Set(i, 0, -1/n)
					}
				} else if s < m.cfg.Margin {
					// Labeled anomaly below margin: push up.
					grad.Set(i, 0, -1/n)
				}
			}
			scorer.Backward(grad)
			opt.Step(scorer.Params())
		}
		if m.cfg.EpochHook != nil {
			m.cfg.EpochHook(e)
		}
	}
	return nil
}

// features builds [bottleneck code ‖ residual vector ‖ recon error].
func (m *FEAWAD) features(x *mat.Matrix) (*mat.Matrix, error) {
	code, err := m.ae.Encoder(x)
	if err != nil {
		return nil, err
	}
	rec, err := m.ae.Reconstruct(x)
	if err != nil {
		return nil, err
	}
	out := mat.New(x.Rows, code.Cols+x.Cols+1)
	for i := 0; i < x.Rows; i++ {
		dst := out.Row(i)
		copy(dst, code.Row(i))
		xr, rr := x.Row(i), rec.Row(i)
		var e float64
		for j := range xr {
			d := xr[j] - rr[j]
			dst[code.Cols+j] = d
			e += d * d
		}
		dst[code.Cols+x.Cols] = math.Sqrt(e)
	}
	return out, nil
}

// Score implements detector.Detector.
func (m *FEAWAD) Score(ctx context.Context, x *mat.Matrix) ([]float64, error) {
	if m.scorer == nil {
		return nil, errors.New("feawad: not fitted")
	}
	feat, err := m.features(x)
	if err != nil {
		return nil, err
	}
	out := m.scorer.Forward(feat)
	scores := make([]float64, x.Rows)
	for i := range scores {
		scores[i] = out.At(i, 0)
	}
	return scores, nil
}
