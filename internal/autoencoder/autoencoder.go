// Package autoencoder implements the candidate-selection autoencoder
// of TargAD (Section III-B1): a bottleneck MLP trained on one
// unlabeled cluster with the semi-supervised loss of Eq. (1), which
// adds a DeepSAD-inspired inverse reconstruction penalty for labeled
// target anomalies so that anomalies reconstruct poorly.
package autoencoder

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"

	"targad/internal/faultinject"
	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/parallel"
	"targad/internal/rng"
)

// Config controls one autoencoder.
type Config struct {
	// InputDim is the feature dimensionality D.
	InputDim int
	// Hidden lists the encoder hidden widths, bottleneck last
	// (e.g. {64, 32}); the decoder mirrors it. Empty uses a default
	// sized from InputDim.
	Hidden []int
	// Eta is the trade-off η of Eq. (1) weighting the labeled-anomaly
	// inverse-error penalty (paper default 1).
	Eta float64
	// LR is the Adam learning rate (paper default 1e-4).
	LR float64
	// BatchSize is the unlabeled mini-batch size (paper default 256).
	BatchSize int
	// Epochs is the number of passes over the cluster (paper
	// default 30).
	Epochs int
}

// Default returns the paper's hyperparameters for dimensionality d.
func Default(d int) Config {
	return Config{
		InputDim:  d,
		Hidden:    defaultHidden(d),
		Eta:       1,
		LR:        1e-4,
		BatchSize: 256,
		Epochs:    30,
	}
}

func defaultHidden(d int) []int {
	h1 := d / 2
	if h1 < 16 {
		h1 = 16
	}
	h2 := d / 4
	if h2 < 8 {
		h2 = 8
	}
	return []int{h1, h2}
}

// invErrEps floors the reconstruction error inside the inverse penalty
// so a perfectly reconstructed labeled anomaly cannot blow up the
// loss.
const invErrEps = 1e-3

// AE is a trained autoencoder.
type AE struct {
	cfg Config
	net *nn.MLP

	// Training workspaces, sized on first use and reused across batches
	// and Train calls so steady-state epochs allocate nothing.
	xb    *mat.Matrix // gathered unlabeled mini-batch
	grad  *mat.Matrix // reconstruction-loss gradient
	gradL *mat.Matrix // inverse-loss gradient for labeled anomalies
}

// New builds an untrained autoencoder.
func New(cfg Config, r *rng.RNG) (*AE, error) {
	if cfg.InputDim <= 0 {
		return nil, fmt.Errorf("autoencoder: input dim %d", cfg.InputDim)
	}
	if len(cfg.Hidden) == 0 {
		cfg.Hidden = defaultHidden(cfg.InputDim)
	}
	dims := []int{cfg.InputDim}
	dims = append(dims, cfg.Hidden...)
	for i := len(cfg.Hidden) - 2; i >= 0; i-- {
		dims = append(dims, cfg.Hidden[i])
	}
	dims = append(dims, cfg.InputDim)
	net, err := nn.NewMLP(nn.MLPConfig{
		Dims:   dims,
		Hidden: nn.ReLU,
		Output: nn.Sigmoid, // inputs are min-max scaled to [0,1]
		Init:   nn.HeNormal,
	}, r)
	if err != nil {
		return nil, err
	}
	return &AE{cfg: cfg, net: net}, nil
}

// Train fits the autoencoder on one unlabeled cluster with the Eq. (1)
// loss. labeled may be nil or empty (η term skipped), which recovers a
// conventional unsupervised autoencoder — the η = 0 ablation of
// Fig. 7(a). It returns the mean epoch losses.
//
// Train is TrainCtx without cancellation.
func (ae *AE) Train(unlabeled, labeled *mat.Matrix, r *rng.RNG) ([]float64, error) {
	return ae.TrainCtx(context.Background(), unlabeled, labeled, r)
}

// TrainCtx is Train with cooperative cancellation (checked at every
// epoch boundary) and numerical-health guards: a non-finite or
// diverging epoch loss, or a non-finite parameter, aborts training
// with a *nn.NumericalError instead of silently returning a NaN
// model.
func (ae *AE) TrainCtx(ctx context.Context, unlabeled, labeled *mat.Matrix, r *rng.RNG) ([]float64, error) {
	if unlabeled == nil || unlabeled.Rows == 0 {
		return nil, errors.New("autoencoder: empty unlabeled cluster")
	}
	if unlabeled.Cols != ae.cfg.InputDim {
		return nil, fmt.Errorf("autoencoder: unlabeled dim %d, want %d", unlabeled.Cols, ae.cfg.InputDim)
	}
	useLabeled := ae.cfg.Eta != 0 && labeled != nil && labeled.Rows > 0
	if useLabeled && labeled.Cols != ae.cfg.InputDim {
		return nil, fmt.Errorf("autoencoder: labeled dim %d, want %d", labeled.Cols, ae.cfg.InputDim)
	}

	opt := nn.NewAdam(ae.cfg.LR)
	batcher := nn.NewBatcher(unlabeled.Rows, ae.cfg.BatchSize, r)
	losses := make([]float64, 0, ae.cfg.Epochs)
	var firstLoss float64
	haveFirst := false
	for epoch := 0; epoch < ae.cfg.Epochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return losses, fmt.Errorf("autoencoder: canceled at epoch %d: %w", epoch, err)
		}
		var epochLoss float64
		nb := batcher.BatchesPerEpoch()
		for b := 0; b < nb; b++ {
			idx := batcher.Next()
			ae.xb = nn.GatherInto(ae.xb, unlabeled, idx)
			if faultinject.Fire(faultinject.AEBatchNaN) {
				ae.xb.Data[0] = math.NaN()
			}
			ae.net.ZeroGrad()

			// Unlabeled reconstruction term.
			rec := ae.net.Forward(ae.xb)
			loss, grad := reconLossGradInto(ae.grad, rec, ae.xb)
			ae.grad = grad
			ae.net.BackwardParams(grad)

			// Labeled inverse-error term (Eq. 1, second summand).
			if useLabeled {
				recL := ae.net.Forward(labeled)
				l2, g2 := inverseLossGradInto(ae.gradL, recL, labeled, ae.cfg.Eta)
				ae.gradL = g2
				ae.net.BackwardParams(g2)
				loss += l2
			}
			opt.Step(ae.net.Params())
			epochLoss += loss
		}
		mean := epochLoss / float64(nb)
		losses = append(losses, mean)
		// Numerical-health sentinels (per epoch): a poisoned batch or
		// runaway optimization must fail loudly, not return NaN
		// weights to the candidate-selection stage.
		if !nn.Finite(mean) || (haveFirst && nn.Diverged(mean, firstLoss)) {
			detail := "non-finite epoch loss"
			if nn.Finite(mean) {
				detail = "diverging epoch loss"
			}
			return losses, &nn.NumericalError{Stage: "autoencoder", Cluster: -1, Epoch: epoch, Detail: detail, Value: mean}
		}
		if !haveFirst {
			firstLoss, haveFirst = mean, true
		}
		if name := nn.NonFiniteParam(ae.net.Params()); name != "" {
			return losses, &nn.NumericalError{Stage: "autoencoder", Cluster: -1, Epoch: epoch, Detail: "non-finite parameter " + name, Value: mean}
		}
	}
	return losses, nil
}

// reconLossGradInto returns (1/n)Σ‖x−r‖² and its gradient w.r.t. r,
// written into dst (grown or allocated via mat.Ensure and returned).
func reconLossGradInto(dst, rec, x *mat.Matrix) (float64, *mat.Matrix) {
	n := float64(rec.Rows)
	grad := mat.Ensure(dst, rec.Rows, rec.Cols)
	var loss float64
	for i, rv := range rec.Data {
		d := rv - x.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// inverseLossGradInto returns (η/n)Σ(‖x−r‖²)⁻¹ and its gradient
// w.r.t. r, written into dst (grown or allocated via mat.Ensure and
// returned).
func inverseLossGradInto(dst, rec, x *mat.Matrix, eta float64) (float64, *mat.Matrix) {
	n := float64(rec.Rows)
	grad := mat.Ensure(dst, rec.Rows, rec.Cols)
	var loss float64
	for i := 0; i < rec.Rows; i++ {
		rr, xr := rec.Row(i), x.Row(i)
		e := mat.SquaredDistance(rr, xr) + invErrEps
		loss += eta / n / e
		coef := -2 * eta / n / (e * e)
		gr := grad.Row(i)
		for j := range rr {
			gr[j] = coef * (rr[j] - xr[j])
		}
	}
	return loss, grad
}

// Reconstruct returns the autoencoder's reconstruction of each row.
// The result is caller-owned (a copy, not the network's workspace), so
// it survives later forward passes through the same autoencoder.
func (ae *AE) Reconstruct(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols != ae.cfg.InputDim {
		return nil, fmt.Errorf("autoencoder: input dim %d, want %d", x.Cols, ae.cfg.InputDim)
	}
	return ae.net.Forward(x).Clone(), nil
}

// ReconstructionErrors returns S^Rec(x) = ‖x − φ_D(φ_E(x))‖² (Eq. 2)
// for every row of x.
func (ae *AE) ReconstructionErrors(x *mat.Matrix) ([]float64, error) {
	if x.Cols != ae.cfg.InputDim {
		return nil, fmt.Errorf("autoencoder: input dim %d, want %d", x.Cols, ae.cfg.InputDim)
	}
	// The network's own output buffer is read immediately, so no copy
	// is needed here.
	rec := ae.net.Forward(x)
	errs := make([]float64, x.Rows)
	parallel.ForEachChunkMin(x.Rows, 512, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			errs[i] = mat.SquaredDistance(x.Row(i), rec.Row(i))
		}
	})
	return errs, nil
}

// Encoder returns the latent representation of each row (the output of
// the bottleneck layer). Used by DeepSAD-style baselines that reuse a
// pretrained encoder. The result is caller-owned (a copy, not the
// network's workspace), so it survives later forward passes through
// the same autoencoder.
func (ae *AE) Encoder(x *mat.Matrix) (*mat.Matrix, error) {
	if x.Cols != ae.cfg.InputDim {
		return nil, fmt.Errorf("autoencoder: input dim %d, want %d", x.Cols, ae.cfg.InputDim)
	}
	// The encoder is the first half of the layer stack:
	// len(Hidden) Dense layers, each followed by an activation.
	out := x
	nEnc := 2 * len(ae.cfg.Hidden)
	for i := 0; i < nEnc && i < len(ae.net.Layers); i++ {
		out = ae.net.Layers[i].Forward(out)
	}
	return out.Clone(), nil
}

// MaxTrainRetries bounds the LR-halving/re-seed retries a cluster's
// autoencoder gets after a numerical failure before the failure is
// surfaced to the caller.
const MaxTrainRetries = 2

// ClusterResume threads checkpoint state through TrainPerCluster.
type ClusterResume struct {
	// Done holds pre-trained autoencoders by cluster index (nil
	// entries are trained from scratch with their own RNG stream, so a
	// resumed run is bitwise identical to an uninterrupted one).
	Done []*AE
	// Errs holds the matching per-cluster reconstruction errors.
	Errs [][]float64
	// OnCluster, when non-nil, is invoked (serialized) as each cluster
	// finishes training — the checkpoint writer hook. An error aborts
	// the run once in-flight clusters drain.
	OnCluster func(cluster int, ae *AE, errs []float64) error
}

// TrainPerCluster trains one autoencoder per cluster concurrently on
// the shared worker pool (Algorithm 1, lines 2–5). clusters[i] lists
// the unlabeled row indices of cluster i. It returns the trained
// autoencoders and S^Rec for every unlabeled row, computed by the AE
// of its own cluster. Clusters are handed to workers largest first,
// so the longest training starts at once instead of last.
//
// Each cluster's RNG stream is split from the parent serially, before
// any training starts, so every autoencoder sees the same stream
// regardless of worker count, scheduling or training order — results
// are bitwise identical to a sequential run, and a cluster restored
// from a checkpoint (resume.Done) never perturbs its siblings' streams.
//
// A cluster whose training trips a numerical guard is retried up to
// MaxTrainRetries times with a halved learning rate and a re-split RNG
// stream; if every attempt fails, the *nn.NumericalError of the last
// attempt (annotated with the cluster index) is returned.
func TrainPerCluster(ctx context.Context, unlabeled, labeled *mat.Matrix, clusters [][]int, cfg Config, r *rng.RNG, resume *ClusterResume) ([]*AE, []float64, error) {
	k := len(clusters)
	if k == 0 {
		return nil, nil, errors.New("autoencoder: no clusters")
	}
	rngs := make([]*rng.RNG, k)
	for i := range rngs {
		rngs[i] = r.SplitN("ae", i)
	}
	aes := make([]*AE, k)
	errsByCluster := make([][]float64, k)
	firstErr := make([]error, k)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(clusters[b]) - len(clusters[a]) })
	var hookMu sync.Mutex
	var hookErr error
	parallel.Map(k, func(j int) {
		i := order[j]
		if resume != nil && i < len(resume.Done) && resume.Done[i] != nil {
			aes[i] = resume.Done[i]
			errsByCluster[i] = resume.Errs[i]
			return
		}
		if err := ctx.Err(); err != nil {
			firstErr[i] = fmt.Errorf("autoencoder: cluster %d canceled: %w", i, err)
			return
		}
		ae, es, err := trainOneCluster(ctx, unlabeled, labeled, clusters[i], cfg, rngs[i], i)
		if err != nil {
			firstErr[i] = err
			return
		}
		aes[i] = ae
		errsByCluster[i] = es
		if resume != nil && resume.OnCluster != nil {
			hookMu.Lock()
			if hookErr == nil {
				hookErr = resume.OnCluster(i, ae, es)
			}
			hookMu.Unlock()
		}
	})
	for _, err := range firstErr {
		if err != nil {
			return nil, nil, err
		}
	}
	if hookErr != nil {
		return nil, nil, hookErr
	}
	scores := make([]float64, unlabeled.Rows)
	for i, idxs := range clusters {
		for j, row := range idxs {
			scores[row] = errsByCluster[i][j]
		}
	}
	return aes, scores, nil
}

// trainOneCluster runs one cluster's build-train-score cycle with the
// bounded numerical-retry loop. Attempt 0 consumes the cluster's
// original RNG stream exactly as the pre-guard code did, so healthy
// runs are bitwise unchanged; retries derive fresh streams from the
// (deterministic) post-failure stream position.
func trainOneCluster(ctx context.Context, unlabeled, labeled *mat.Matrix, cluster []int, cfg Config, cr *rng.RNG, idx int) (*AE, []float64, error) {
	sub := nn.Gather(unlabeled, cluster)
	for attempt := 0; ; attempt++ {
		acfg := cfg
		acfg.LR = cfg.LR / float64(uint(1)<<uint(attempt))
		ae, err := New(acfg, cr)
		if err != nil {
			return nil, nil, err
		}
		_, err = ae.TrainCtx(ctx, sub, labeled, cr)
		var nerr *nn.NumericalError
		if errors.As(err, &nerr) {
			nerr.Cluster = idx
			nerr.Attempt = attempt
			if attempt < MaxTrainRetries {
				cr = cr.SplitN("retry", attempt+1)
				continue
			}
			return nil, nil, nerr
		}
		if err != nil {
			return nil, nil, err
		}
		es, err := ae.ReconstructionErrors(sub)
		if err != nil {
			return nil, nil, err
		}
		return ae, es, nil
	}
}

// ParamValues deep-copies the network's parameter payloads in layer
// order — the checkpoint representation of a trained autoencoder.
func (ae *AE) ParamValues() [][]float64 {
	ps := ae.net.Params()
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

// SetParamValues restores payloads captured by ParamValues into an
// identically configured autoencoder.
func (ae *AE) SetParamValues(vals [][]float64) error {
	ps := ae.net.Params()
	if len(ps) != len(vals) {
		return fmt.Errorf("autoencoder: restore: %d param tensors, saved %d", len(ps), len(vals))
	}
	for i, p := range ps {
		if len(p.Data) != len(vals[i]) {
			return fmt.Errorf("autoencoder: restore: param %d has %d values, saved %d", i, len(p.Data), len(vals[i]))
		}
		copy(p.Data, vals[i])
	}
	return nil
}
