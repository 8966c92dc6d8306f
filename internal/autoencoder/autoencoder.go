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
	opt *nn.Adam // reset at the start of every Train

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
	return &AE{cfg: cfg, net: net, opt: nn.NewAdam(cfg.LR)}, nil
}

// reinit turns ae into the autoencoder New would build from r with
// learning rate lr: weights drawn from r exactly as New draws them,
// biases and gradients zeroed (Train resets the optimizer). The
// workspaces are kept, so one autoencoder trains cluster after cluster
// on one set of buffers.
func (ae *AE) reinit(lr float64, r *rng.RNG) {
	ae.cfg.LR = lr
	ae.net.Reinit(nn.HeNormal, r)
}

// Train fits the autoencoder on one unlabeled cluster with the Eq. (1)
// loss. labeled may be nil or empty (η term skipped), which recovers a
// conventional unsupervised autoencoder — the η = 0 ablation of
// Fig. 7(a). It returns the mean epoch losses.
//
// Cancellation is cooperative (ctx is checked at every epoch
// boundary), and numerical-health guards stop a non-finite or
// diverging epoch loss, or a non-finite parameter, with a
// *nn.NumericalError instead of silently returning a NaN model.
func (ae *AE) Train(ctx context.Context, unlabeled, labeled *mat.Matrix, r *rng.RNG) ([]float64, error) {
	return ae.train(ctx, unlabeled, nil, labeled, r)
}

// train is Train on the rows of pool that rows lists, or on every
// row of pool when rows is nil. Each batch is gathered straight from
// pool through rows, so training a cluster copies no more than one
// batch at a time.
func (ae *AE) train(ctx context.Context, pool *mat.Matrix, rows []int, labeled *mat.Matrix, r *rng.RNG) ([]float64, error) {
	n := len(rows)
	if rows == nil && pool != nil {
		n = pool.Rows
	}
	if n == 0 {
		return nil, errors.New("autoencoder: empty unlabeled cluster")
	}
	if pool.Cols != ae.cfg.InputDim {
		return nil, fmt.Errorf("autoencoder: unlabeled dim %d, want %d", pool.Cols, ae.cfg.InputDim)
	}
	useLabeled := ae.cfg.Eta != 0 && labeled != nil && labeled.Rows > 0
	if useLabeled && labeled.Cols != ae.cfg.InputDim {
		return nil, fmt.Errorf("autoencoder: labeled dim %d, want %d", labeled.Cols, ae.cfg.InputDim)
	}

	ae.opt.Reset(ae.cfg.LR)
	batcher := nn.NewBatcher(n, ae.cfg.BatchSize, r)
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
			ae.xb = nn.GatherSubsetInto(ae.xb, pool, rows, idx)
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
			ae.opt.Step(ae.net.Params())
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
	errs := make([]float64, x.Rows)
	ae.reconErrorsInto(errs, x, nil)
	return errs, nil
}

// reconErrorsInto computes S^Rec for the rows of pool that rows lists
// (every row when rows is nil) and stores each at the row's index in
// pool, so dst is pool-sized. The rows run through the network in
// BatchSize-row batches (listed rows gathered into the training batch
// workspace), so the forward workspaces never grow past a batch.
func (ae *AE) reconErrorsInto(dst []float64, pool *mat.Matrix, rows []int) {
	ae.xb = nn.ForEachBatch(ae.xb, pool, rows, ae.cfg.BatchSize, func(lo int, x *mat.Matrix) {
		// The network's own output buffer is read immediately, so no
		// copy is needed here.
		rec := ae.net.Forward(x)
		for i := 0; i < x.Rows; i++ {
			at := lo + i
			if rows != nil {
				at = rows[at]
			}
			dst[at] = mat.SquaredDistance(x.Row(i), rec.Row(i))
		}
	})
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
	// The encoder is the first len(Hidden) layers of the stack.
	out := x
	for _, l := range ae.net.Layers[:len(ae.cfg.Hidden)] {
		out = l.Forward(out)
	}
	return out.Clone(), nil
}

// MaxTrainRetries bounds the LR-halving/re-seed retries a cluster's
// autoencoder gets after a numerical failure before the failure is
// surfaced to the caller.
const MaxTrainRetries = 2

// ClusterResume threads checkpoint state through TrainPerCluster.
type ClusterResume struct {
	// Errs holds, by cluster index, the S^Rec of clusters a checkpoint
	// already finished, aligned with the cluster's row list. Clusters
	// with a nil entry are trained with their own RNG stream, so a
	// resumed run is bitwise identical to an uninterrupted one.
	Errs [][]float64
	// OnCluster, when non-nil, is invoked (serialized) as each cluster
	// finishes with the cluster's S^Rec, aligned with its row list —
	// the checkpoint writer hook. An error aborts the run once
	// in-flight clusters drain.
	OnCluster func(cluster int, errs []float64) error
}

// TrainPerCluster trains one autoencoder per cluster concurrently on
// the shared worker pool (Algorithm 1, lines 2–5) and returns S^Rec for
// every unlabeled row, computed by the AE of its own cluster.
// clusters[i] lists the unlabeled row indices of cluster i. Clusters
// are handed to workers largest first, so the longest training starts
// at once instead of last.
//
// Only S^Rec outlives a cluster. Its batches and its S^Rec pass gather
// rows straight from unlabeled through the row list, so the working
// memory of a cluster is one batch whatever the cluster's size. Once a
// cluster is scored its autoencoder goes back on a free list of at most
// parallel.Workers() entries, and the next cluster (or retry) reinits
// it in place from its own RNG stream, so a run builds one network,
// optimizer state and set of workspaces per worker, not per cluster.
//
// Each cluster's RNG stream is split from the parent serially, before
// any training starts, so every autoencoder sees the same stream
// regardless of worker count, scheduling or training order — results
// are bitwise identical to a sequential run, and a cluster restored
// from a checkpoint (resume.Errs) never perturbs its siblings' streams.
//
// A cluster whose training trips a numerical guard is retried up to
// MaxTrainRetries times with a halved learning rate and a re-split RNG
// stream; if every attempt fails, the *nn.NumericalError of the last
// attempt (annotated with the cluster index) is returned.
func TrainPerCluster(ctx context.Context, unlabeled, labeled *mat.Matrix, clusters [][]int, cfg Config, r *rng.RNG, resume *ClusterResume) ([]float64, error) {
	k := len(clusters)
	if k == 0 {
		return nil, errors.New("autoencoder: no clusters")
	}
	rngs := make([]*rng.RNG, k)
	for i := range rngs {
		rngs[i] = r.SplitN("ae", i)
	}
	// Clusters own disjoint rows, so concurrent clusters write
	// disjoint elements of scores.
	scores := make([]float64, unlabeled.Rows)
	firstErr := make([]error, k)
	order := make([]int, k)
	for i := range order {
		order[i] = i
	}
	slices.SortStableFunc(order, func(a, b int) int { return len(clusters[b]) - len(clusters[a]) })
	var hookMu sync.Mutex
	var hookErr error
	free := make(chan *AE, min(k, parallel.Workers()))
	parallel.Map(k, func(j int) {
		i := order[j]
		if resume != nil && i < len(resume.Errs) && resume.Errs[i] != nil {
			es := resume.Errs[i]
			if len(es) != len(clusters[i]) {
				firstErr[i] = fmt.Errorf("autoencoder: cluster %d resumes %d errors for %d rows", i, len(es), len(clusters[i]))
				return
			}
			for p, row := range clusters[i] {
				scores[row] = es[p]
			}
			return
		}
		if err := ctx.Err(); err != nil {
			firstErr[i] = fmt.Errorf("autoencoder: cluster %d canceled: %w", i, err)
			return
		}
		var ae *AE
		select {
		case ae = <-free:
		default:
		}
		ae, err := trainOneCluster(ctx, ae, unlabeled, labeled, clusters[i], cfg, rngs[i], i)
		if err != nil {
			firstErr[i] = err
			return
		}
		ae.reconErrorsInto(scores, unlabeled, clusters[i])
		select {
		case free <- ae:
		default:
		}
		if resume != nil && resume.OnCluster != nil {
			es := nn.GatherVec(scores, clusters[i])
			hookMu.Lock()
			if hookErr == nil {
				hookErr = resume.OnCluster(i, es)
			}
			hookMu.Unlock()
		}
	})
	for _, err := range firstErr {
		if err != nil {
			return nil, err
		}
	}
	if hookErr != nil {
		return nil, hookErr
	}
	return scores, nil
}

// trainOneCluster trains one cluster's autoencoder with the bounded
// numerical-retry loop, reinitialising ae when it is non-nil and
// building one otherwise; either way each attempt starts from the
// network New would draw. Attempt 0 consumes the cluster's original RNG
// stream exactly as the pre-guard code did, so healthy runs are bitwise
// unchanged; retries derive fresh streams from the (deterministic)
// post-failure stream position.
func trainOneCluster(ctx context.Context, ae *AE, unlabeled, labeled *mat.Matrix, cluster []int, cfg Config, cr *rng.RNG, idx int) (*AE, error) {
	for attempt := 0; ; attempt++ {
		lr := cfg.LR / float64(uint(1)<<uint(attempt))
		if ae == nil {
			acfg := cfg
			acfg.LR = lr
			var err error
			if ae, err = New(acfg, cr); err != nil {
				return nil, err
			}
		} else {
			ae.reinit(lr, cr)
		}
		_, err := ae.train(ctx, unlabeled, cluster, labeled, cr)
		var nerr *nn.NumericalError
		if errors.As(err, &nerr) {
			nerr.Cluster = idx
			nerr.Attempt = attempt
			if attempt < MaxTrainRetries {
				cr = cr.SplitN("retry", attempt+1)
				continue
			}
			return nil, nerr
		}
		if err != nil {
			return nil, err
		}
		return ae, nil
	}
}
