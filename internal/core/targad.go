// Package core implements TargAD, the paper's target-class anomaly
// detection model (Section III): candidate selection via per-cluster
// semi-supervised autoencoders, a pseudo-labeled (m+k)-way classifier
// trained with the composite loss L_clf = L_CE + λ₁·L_OE + λ₂·L_RE,
// the weight-updating mechanism of Eqs. (4)–(5), the target-anomaly
// score of Eq. (9), and the three-way identification strategies of
// Section III-C.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"

	"targad/internal/autoencoder"
	"targad/internal/cluster"
	"targad/internal/dataset"
	"targad/internal/faultinject"
	"targad/internal/mat"
	"targad/internal/metrics"
	"targad/internal/monitor"
	"targad/internal/nn"
	"targad/internal/parallel"
	"targad/internal/rng"
)

// Config holds TargAD's hyperparameters. DefaultConfig returns the
// paper's settings (Section IV-C).
type Config struct {
	// K is the number of normal clusters; 0 selects k automatically
	// with the elbow method over [KMin, KMax].
	K          int
	KMin, KMax int

	// Alpha is the candidate-selection threshold: the top Alpha
	// fraction of unlabeled instances by reconstruction error becomes
	// D_U^A (paper default 0.05).
	Alpha float64

	// LargePoolThreshold switches clustering to mini-batch k-means
	// (and runs the elbow method on a subsample) once the unlabeled
	// pool exceeds this many rows, keeping paper-scale runs (up to
	// 132k instances) tractable. 0 means 20000.
	LargePoolThreshold int

	// Eta is the trade-off η in the autoencoder loss Eq. (1).
	Eta float64
	// Lambda1 weights L_OE and Lambda2 weights L_RE in Eq. (8).
	Lambda1, Lambda2 float64

	// UseOE / UseRE toggle the L_OE and L_RE terms; both true by
	// default. Setting them false yields the ablated variants
	// TargAD_-O, TargAD_-R, and TargAD_-O-R of Table III.
	UseOE, UseRE bool

	// FreezeWeights disables the Eq. (4) per-epoch weight updates,
	// keeping the initial Eq. (5) reconstruction-error weights for
	// the whole run — the counterfactual behind the RQ4 analysis of
	// the weight-updating strategy.
	FreezeWeights bool

	// Autoencoder training (paper: Adam, lr 1e-4, batch 256,
	// 30 epochs).
	AEHidden []int
	AELR     float64
	AEBatch  int
	AEEpochs int

	// Classifier training (paper: Adam, lr 1e-5, batch 128,
	// 30 epochs). ClfHidden lists hidden widths.
	ClfHidden []int
	ClfLR     float64
	ClfBatch  int
	ClfEpochs int

	// RecordWeights retains the per-epoch weight vector of every
	// non-target anomaly candidate for the Fig. 5 analysis.
	RecordWeights bool

	// Validation, when non-nil, enables the paper's validation-based
	// model selection (Section IV-C): after every epoch the
	// classifier is scored on this split, and the parameters of the
	// best-AUPRC epoch are restored at the end of training.
	Validation *dataset.EvalSet

	// EpochHook, when non-nil, runs after every classifier epoch —
	// the convergence analysis of Fig. 3 uses it to score the test
	// set per epoch. On a checkpoint resume the hook fires only for
	// the epochs actually re-run, not the fast-forwarded ones.
	EpochHook func(epoch int, m *Model)

	// Checkpoint, when Path is set, makes Fit crash-safe: progress is
	// persisted as training advances and a rerun with the same seed,
	// configuration, and data resumes bitwise-identically instead of
	// starting over.
	Checkpoint CheckpointConfig

	// WarmStart, when set and shape-compatible with the classifier this
	// fit builds, replaces the random initial parameters with a prior
	// model's trained values (see Model.WarmStartState). Applied after
	// every fresh network construction — including LR-halving retries —
	// so a warm-started fit stays bitwise-reproducible. A mismatched
	// snapshot is ignored.
	WarmStart *WarmStart
}

// DefaultConfig returns the hyperparameters of Section IV-C.
func DefaultConfig() Config {
	return Config{
		K:         0,
		KMin:      2,
		KMax:      8,
		Alpha:     0.05,
		Eta:       1,
		Lambda1:   0.1,
		Lambda2:   1,
		UseOE:     true,
		UseRE:     true,
		AELR:      1e-4,
		AEBatch:   256,
		AEEpochs:  30,
		ClfLR:     1e-5,
		ClfBatch:  128,
		ClfEpochs: 30,
	}
}

// Model is a trained (or in-training) TargAD instance.
type Model struct {
	cfg  Config
	seed int64

	m, k int // target types, normal clusters
	dim  int

	clf *nn.MLP

	// Candidate-selection artifacts.
	recErrors []float64 // S^Rec per unlabeled row
	candIdx   []int     // rows of D_U^A within the unlabeled pool
	normIdx   []int     // rows of D_U^N
	normClus  []int     // cluster index per D_U^N row

	// Training instrumentation.
	EpochLosses  []float64   // mean L_clf per epoch (Fig. 3a)
	weightHist   [][]float64 // per-epoch weights over D_U^A (Fig. 5)
	finalWeights []float64   // Eq. (4) weights after the last epoch

	// Identification calibration (Section III-C).
	idThreshold map[OODStrategy]float64

	// Monitoring reference captured at the end of Fit (see
	// profile.go); persisted with the model, nil when absent.
	profile *monitor.Profile

	// Inference state, reset by setClassifier (see infer.go): the free
	// list of parameter-sharing classifier replicas behind Infer, and
	// the float32 parameter set EnableF32 builds, guarded by inferMu,
	// with the free list of f32 replicas over it (see infer32.go).
	inferMu   sync.Mutex
	clfFree   freeList[*nn.MLP]
	f32params *nn.Params32
	f32Free   freeList[*f32Replica]
}

// New returns an untrained TargAD model. Zero-valued numeric fields in
// cfg fall back to the paper defaults.
func New(cfg Config, seed int64) *Model {
	d := DefaultConfig()
	if cfg.KMin == 0 {
		cfg.KMin = d.KMin
	}
	if cfg.KMax == 0 {
		cfg.KMax = d.KMax
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = d.Alpha
	}
	if cfg.AELR == 0 {
		cfg.AELR = d.AELR
	}
	if cfg.AEBatch == 0 {
		cfg.AEBatch = d.AEBatch
	}
	if cfg.AEEpochs == 0 {
		cfg.AEEpochs = d.AEEpochs
	}
	if cfg.ClfLR == 0 {
		cfg.ClfLR = d.ClfLR
	}
	if cfg.ClfBatch == 0 {
		cfg.ClfBatch = d.ClfBatch
	}
	if cfg.ClfEpochs == 0 {
		cfg.ClfEpochs = d.ClfEpochs
	}
	return &Model{cfg: cfg, seed: seed, idThreshold: make(map[OODStrategy]float64)}
}

// Name implements detector.Detector.
func (mo *Model) Name() string { return "TargAD" }

// SetValidation implements detector.ValidationAware: it enables
// best-epoch model selection on the given split.
func (mo *Model) SetValidation(v *dataset.EvalSet) { mo.cfg.Validation = v }

// NumTargetTypes returns m after Fit.
func (mo *Model) NumTargetTypes() int { return mo.m }

// InputDim returns the feature width the model scores, after Fit.
func (mo *Model) InputDim() int { return mo.dim }

// NumNormalClusters returns k after Fit.
func (mo *Model) NumNormalClusters() int { return mo.k }

// CandidateIndices returns the unlabeled-pool row indices selected
// into D_U^A, in weight-vector order.
func (mo *Model) CandidateIndices() []int { return mo.candIdx }

// WeightTrajectory returns, when Config.RecordWeights was set, one
// weight vector per classifier epoch aligned with CandidateIndices.
func (mo *Model) WeightTrajectory() [][]float64 { return mo.weightHist }

// ReconstructionErrors returns S^Rec for every unlabeled training row.
func (mo *Model) ReconstructionErrors() []float64 { return mo.recErrors }

// Fit runs Algorithm 1: cluster, train per-cluster autoencoders,
// select candidates, then train the (m+k)-way classifier with the
// composite loss.
//
// Cancellation is cooperative: ctx is checked at every clustering
// iteration and training epoch, and a cancellation surfaces as an
// error wrapping ctx.Err() within one epoch. Internal panics (shape
// violations, worker crashes) are converted into a *InternalError
// instead of taking the process down, and numerical failures that
// survive the bounded LR-halving retries surface as a
// *nn.NumericalError. With Config.Checkpoint set, progress persists
// across interruptions and a rerun resumes bitwise-identically.
func (mo *Model) Fit(ctx context.Context, train *dataset.TrainSet) (err error) {
	defer recoverToError("fit", &err)
	if ctx == nil {
		ctx = context.Background()
	}
	if err := train.Validate(); err != nil {
		return fmt.Errorf("targad: %w", err)
	}
	r := rng.New(mo.seed)
	mo.m = train.NumTargetTypes
	mo.dim = train.Dim()

	var ck *checkpointer
	if mo.cfg.Checkpoint.Path != "" {
		ck, err = mo.newCheckpointer(train)
		if err != nil {
			return err
		}
	}
	if err := mo.selectCandidates(ctx, train, r, ck); err != nil {
		return err
	}
	if err := mo.trainClassifier(ctx, train, r, ck); err != nil {
		return err
	}
	mo.captureProfile(train)
	if ck != nil {
		ck.finish()
	}
	return nil
}

// selectCandidates implements Algorithm 1 lines 1–7. When resuming
// from a checkpoint it fast-forwards the completed stages, consuming
// the parent RNG's split sequence exactly as the original run did so
// every later stream is unchanged.
func (mo *Model) selectCandidates(ctx context.Context, train *dataset.TrainSet, r *rng.RNG, ck *checkpointer) error {
	x := train.Unlabeled
	largeAt := mo.cfg.LargePoolThreshold
	if largeAt <= 0 {
		largeAt = 20000
	}
	large := x.Rows > largeAt

	resumed := ck.haveClustering()
	k := mo.cfg.K
	if k == 0 {
		var subR *rng.RNG
		if large {
			subR = r.Split("elbowsub")
		}
		elbowR := r.Split("elbow")
		if resumed {
			k = ck.state.K
		} else {
			elbowX := x
			if large {
				// The elbow only needs the inertia curve's shape; a
				// subsample preserves it at a fraction of the cost.
				sub := subR.Sample(x.Rows, largeAt/2)
				elbowX = nn.Gather(x, sub)
			}
			var err error
			k, _, err = cluster.ChooseK(ctx, elbowX, mo.cfg.KMin, mo.cfg.KMax, elbowR)
			if err != nil {
				return fmt.Errorf("targad: elbow method: %w", err)
			}
		}
	}
	mo.k = k

	kmR := r.Split("kmeans")
	var res *cluster.Result
	var err error
	switch {
	case resumed:
		res = ck.clusterResult(mo.dim)
	case large:
		res, err = cluster.MiniBatchKMeans(ctx, x, cluster.MiniBatchConfig{K: k, BatchSize: 2048, Iters: 200}, kmR)
	default:
		res, err = cluster.KMeans(ctx, x, cluster.Config{K: k}, kmR)
	}
	if err != nil {
		return fmt.Errorf("targad: clustering: %w", err)
	}
	if ck != nil && !resumed {
		if err := ck.saveClustering(res); err != nil {
			return err
		}
	}

	clusters := make([][]int, k)
	for i, c := range res.Assignment {
		clusters[c] = append(clusters[c], i)
	}
	aeCfg := autoencoder.Config{
		InputDim:  mo.dim,
		Hidden:    mo.cfg.AEHidden,
		Eta:       mo.cfg.Eta,
		LR:        mo.cfg.AELR,
		BatchSize: mo.cfg.AEBatch,
		Epochs:    mo.cfg.AEEpochs,
	}
	aesR := r.Split("aes")
	var resume *autoencoder.ClusterResume
	if ck != nil {
		resume = ck.clusterResume()
	}
	recErr, err := autoencoder.TrainPerCluster(ctx, x, train.Labeled, clusters, aeCfg, aesR, resume)
	if err != nil {
		var cerr *CheckpointError
		if errors.As(err, &cerr) {
			return err
		}
		return fmt.Errorf("targad: autoencoders: %w", err)
	}
	mo.recErrors = recErr

	// Rank by reconstruction error, top α% → D_U^A.
	nCand := int(math.Round(mo.cfg.Alpha * float64(x.Rows)))
	if nCand < 1 {
		nCand = 1
	}
	if nCand >= x.Rows {
		return fmt.Errorf("targad: alpha %.3f selects the entire unlabeled pool", mo.cfg.Alpha)
	}
	order := argsortDesc(recErr)
	mo.candIdx = append([]int(nil), order[:nCand]...)
	mo.normIdx = append([]int(nil), order[nCand:]...)
	mo.normClus = make([]int, len(mo.normIdx))
	for i, row := range mo.normIdx {
		mo.normClus[i] = res.Assignment[row]
	}
	return nil
}

// maxClfRetries bounds the LR-halving/re-seed retries the classifier
// stage gets after a numerical failure before the *nn.NumericalError
// is surfaced to the caller.
const maxClfRetries = 2

// trainClassifier wraps the classifier stage in the bounded
// numerical-retry loop. Attempt 0 consumes the parent RNG exactly as
// the unguarded code did, so healthy runs are bitwise unchanged;
// each retry derives a fresh deterministic stream and halves the
// learning rate.
func (mo *Model) trainClassifier(ctx context.Context, train *dataset.TrainSet, r *rng.RNG, ck *checkpointer) error {
	for attempt := 0; ; attempt++ {
		ar := r
		lr := mo.cfg.ClfLR
		if attempt > 0 {
			ar = r.SplitN("clfretry", attempt)
			lr = mo.cfg.ClfLR / float64(uint(1)<<uint(attempt))
			mo.EpochLosses = nil
			mo.weightHist = nil
			ck.resetClassifier(attempt)
		}
		err := mo.trainClassifierAttempt(ctx, train, ar, lr, attempt, ck)
		var nerr *nn.NumericalError
		if errors.As(err, &nerr) && attempt < maxClfRetries {
			continue
		}
		return err
	}
}

// trainClassifierAttempt implements Algorithm 1 lines 8–17 for one
// numerical-retry attempt.
func (mo *Model) trainClassifierAttempt(ctx context.Context, train *dataset.TrainSet, r *rng.RNG, lr float64, attempt int, ck *checkpointer) error {
	numClasses := mo.m + mo.k
	hidden := mo.cfg.ClfHidden
	if len(hidden) == 0 {
		hidden = defaultClfHidden(mo.dim)
	}
	dims := append([]int{mo.dim}, hidden...)
	dims = append(dims, numClasses)
	clf, err := nn.NewMLP(nn.MLPConfig{Dims: dims, Hidden: nn.ReLU, Output: nn.Identity, Init: nn.HeNormal}, r.Split("clf"))
	if err != nil {
		return fmt.Errorf("targad: classifier: %w", err)
	}
	mo.setClassifier(clf)
	if ws := mo.cfg.WarmStart; ws.matches(mo.dim, numClasses, hidden) {
		restoreParams(clf, ws.Params)
	}

	// The two supervised pools of Eq. (3): D_L with target pseudo-
	// labels and D_U^N with cluster pseudo-labels. The equation
	// normalizes each term by its own set size, so the handful of
	// labeled anomalies carries the same aggregate weight as the
	// entire normal-candidate pool — we honor that by drawing one
	// batch from each per step and backpropagating the two
	// cross-entropies separately. D_U^N and D_U^A stay index lists into
	// the unlabeled pool: each batch is gathered from the pool through
	// them and its targets are written per batch, so neither set is
	// ever copied whole.
	xa := train.Labeled
	pool := train.Unlabeled
	nNorm := len(mo.normIdx)
	cand := rowSet{x: pool, idx: mo.candIdx}

	// Initial weights via Eq. (5) from reconstruction errors.
	candRec := make([]float64, len(mo.candIdx))
	for i, row := range mo.candIdx {
		candRec[i] = mo.recErrors[row]
	}
	weights := normalizeInverted(candRec)

	total := float64(xa.Rows + nNorm)
	reFracN := float64(nNorm) / total
	reFracL := float64(xa.Rows) / total

	opt := nn.NewAdam(lr)
	normBat := nn.NewBatcher(nNorm, mo.cfg.ClfBatch, r.Split("normbat"))
	labBat := nn.NewBatcher(xa.Rows, min(mo.cfg.ClfBatch, xa.Rows), r.Split("labbat"))
	candBat := nn.NewBatcher(len(mo.candIdx), mo.cfg.ClfBatch, r.Split("candbat"))

	bestVal := -1.0
	var bestParams [][]float64
	resumeEpochs := ck.classifierResume(attempt)
	if resumeEpochs > 0 {
		var rerr error
		bestVal, bestParams, rerr = ck.restoreClassifier(mo, opt)
		if rerr != nil {
			return rerr
		}
	}
	// Best-epoch selection needs a validation AUPRC that is more than
	// noise; with very few positive instances (e.g. the SQB split's
	// handful of validation targets) a single lucky rank dominates, so
	// selection is disabled below a minimal support.
	useValidation := false
	if mo.cfg.Validation != nil {
		var pos int
		for _, k := range mo.cfg.Validation.Kind {
			if k == dataset.KindTarget {
				pos++
			}
		}
		useValidation = pos >= 5
	}

	useOE := mo.cfg.UseOE && mo.cfg.Lambda1 != 0 && len(mo.candIdx) > 0
	// The step's three loss passes, their batch workspaces (sized on
	// first use and reused for the whole run, so the steady-state epoch
	// loop allocates nothing) and, once a step runs concurrently, the
	// training replicas the D_L and D_U^A passes use.
	st := &clfStep{mo: mo, useOE: useOE}
	st.norm.reFrac, st.lab.reFrac = reFracN, reFracL
	var firstLoss float64
	haveFirst := false
	if resumeEpochs > 0 && len(mo.EpochLosses) > 0 {
		firstLoss, haveFirst = mo.EpochLosses[0], true
	}

	for epoch := 0; epoch < mo.cfg.ClfEpochs; epoch++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("targad: classifier canceled at epoch %d: %w", epoch, err)
		}
		if epoch < resumeEpochs {
			// Ghost epoch: the checkpoint already holds this epoch's
			// result, so consume exactly the random draws the original
			// epoch consumed — the three batchers' shuffles — and skip
			// the compute. Every stream is left in the same position an
			// uninterrupted run would have reached.
			nb := normBat.BatchesPerEpoch()
			for b := 0; b < nb; b++ {
				normBat.Next()
				labBat.Next()
				if useOE {
					candBat.Next()
				}
			}
			continue
		}
		if epoch > 0 && !mo.cfg.FreezeWeights {
			// Eq. (4): re-derive weights from the classifier's
			// current max predicted probabilities over D_U^A.
			eps := mo.maxProbs(cand)
			weights = normalizeInverted(eps)
		}
		if mo.cfg.RecordWeights {
			snap := make([]float64, len(weights))
			copy(snap, weights)
			mo.weightHist = append(mo.weightHist, snap)
		}

		var epochLoss float64
		nb := normBat.BatchesPerEpoch()
		for b := 0; b < nb; b++ {
			// Draw and gather every pass's batch first, in the order the
			// batchers have always been drawn (ghost epochs replay it).
			nidx := normBat.Next()
			st.norm.xb = nn.GatherSubsetInto(st.norm.xb, pool, mo.normIdx, nidx)
			if faultinject.Fire(faultinject.ClfBatchNaN) {
				st.norm.xb.Data[0] = math.NaN()
			}
			st.norm.yb = oneHotInto(st.norm.yb, numClasses, mo.m, mo.normClus, nidx)
			lidx := labBat.Next()
			st.lab.xb = nn.GatherInto(st.lab.xb, xa, lidx)
			st.lab.yb = oneHotInto(st.lab.yb, numClasses, 0, train.LabeledType, lidx)
			if useOE {
				cidx := candBat.Next()
				st.cand.xb = nn.GatherSubsetInto(st.cand.xb, pool, mo.candIdx, cidx)
				st.cand.yb = mo.oeLabelsInto(st.cand.yb, len(cidx))
				st.cand.cw = nn.GatherVecInto(st.cand.cw, weights, cidx)
			}
			st.run()
			loss := 0.0
			loss += st.norm.loss
			loss += st.lab.loss
			if useOE {
				loss += mo.cfg.Lambda1 * st.cand.loss
			}
			opt.Step(mo.clf.Params())
			epochLoss += loss
		}
		mean := epochLoss / float64(nb)
		mo.EpochLosses = append(mo.EpochLosses, mean)
		// Numerical-health sentinels: a poisoned batch or runaway
		// optimization fails loudly (and triggers the bounded retry in
		// trainClassifier) rather than checkpointing or returning a NaN
		// model.
		if !nn.Finite(mean) || (haveFirst && nn.Diverged(mean, firstLoss)) {
			detail := "non-finite epoch loss"
			if nn.Finite(mean) {
				detail = "diverging epoch loss"
			}
			return &nn.NumericalError{Stage: "classifier", Cluster: -1, Epoch: epoch, Attempt: attempt, Detail: detail, Value: mean}
		}
		if !haveFirst {
			firstLoss, haveFirst = mean, true
		}
		if name := nn.NonFiniteParam(mo.clf.Params()); name != "" {
			return &nn.NumericalError{Stage: "classifier", Cluster: -1, Epoch: epoch, Attempt: attempt, Detail: "non-finite parameter " + name, Value: mean}
		}
		if useValidation {
			if v := mo.validationAUPRC(mo.cfg.Validation); v > bestVal {
				bestVal = v
				bestParams = snapshotParams(mo.clf)
			}
		}
		if mo.cfg.EpochHook != nil {
			mo.cfg.EpochHook(epoch, mo)
		}
		if ck != nil {
			if err := ck.saveClassifier(mo, opt, attempt, epoch+1, bestVal, bestParams); err != nil {
				return err
			}
		}
	}
	if bestParams != nil {
		restoreParams(mo.clf, bestParams)
	}

	// Final Eq. (4) weights under the trained classifier; they feed
	// both the Fig. 5 diagnostics and the identification calibration
	// (highly weighted candidates are the likeliest genuine
	// non-target anomalies).
	if len(mo.candIdx) > 0 {
		mo.finalWeights = normalizeInverted(mo.maxProbs(cand))
	}
	mo.calibrateIdentification(rowSet{x: xa}, cand, mo.finalWeights)
	mo.tuneIdentifyOnValidation(mo.cfg.Validation)
	return nil
}

// FinalWeights returns the Eq. (4) weights of the non-target anomaly
// candidates under the fully trained classifier, aligned with
// CandidateIndices.
func (mo *Model) FinalWeights() []float64 { return mo.finalWeights }

// snapshotParams deep-copies a network's parameter values.
func snapshotParams(net *nn.MLP) [][]float64 {
	ps := net.Params()
	out := make([][]float64, len(ps))
	for i, p := range ps {
		out[i] = append([]float64(nil), p.Data...)
	}
	return out
}

// restoreParams writes a snapshot back into the network.
func restoreParams(net *nn.MLP, snap [][]float64) {
	for i, p := range net.Params() {
		copy(p.Data, snap[i])
	}
}

func defaultClfHidden(d int) []int {
	h1 := d / 2
	if h1 < 32 {
		h1 = 32
	}
	h2 := d / 4
	if h2 < 16 {
		h2 = 16
	}
	return []int{h1, h2}
}

// clfPass is one loss pass of a classifier step: the network it runs
// on, its gathered batch (inputs, targets and, for L_OE, candidate
// weights), its loss-gradient buffers, and the loss it produced. The
// buffers are grown on first use via the Into helpers and reused
// across batches and epochs.
type clfPass struct {
	net            *nn.MLP
	xb, yb         *mat.Matrix
	gradCE, gradRE *mat.Matrix
	cw             []float64
	reFrac         float64 // L_RE share (superviseStep); unused by L_OE
	loss           float64
}

// clfStep runs the three loss passes of one classifier step — the
// D_U^N and D_L cross-entropy passes with their L_RE shares, then
// L_OE over D_U^A — and leaves their summed gradient in the model's
// parameters.
//
// The work runs as two parallel.Map tasks — the D_U^N pass on the
// model's network, and the D_L pass followed by the D_U^A pass, each on
// a training replica of its own — and AddGrads then folds the replicas
// into the model in pass order, giving ((0+g_N)+(0+g_L))+(0+g_A). A
// zeroed buffer holds +0, so (0+g) differs from g only when g is −0,
// and adding +0 instead of −0 changes a sum only when the other addend
// is −0 too. (0+g_N) is never −0, nor is any sum onto it, so the fold
// is ((0+g_N)+g_L)+g_A bit for bit — the sum that one network
// accumulating all three passes would hold — at any worker count. With
// one worker Map runs the two tasks in order on the caller.
type clfStep struct {
	mo              *Model
	useOE           bool
	norm, lab, cand clfPass

	// Built on the first step, then reused.
	labNet, candNet *nn.MLP
	task            func(i int)
}

// run executes one step's passes. The batches must already be
// gathered into the passes.
func (st *clfStep) run() {
	clf := st.mo.clf
	if st.task == nil {
		st.labNet, st.candNet = clf.TrainReplica(), clf.TrainReplica()
		st.norm.net, st.lab.net, st.cand.net = clf, st.labNet, st.candNet
		st.task = st.pass
	}
	clf.ZeroGrad()
	st.labNet.ZeroGrad()
	st.candNet.ZeroGrad()
	parallel.Map(2, st.task)
	clf.AddGrads(st.labNet)
	if st.useOE {
		clf.AddGrads(st.candNet)
	}
}

// pass runs task i of a step: 0 is the D_U^N pass, 1 the D_L pass and
// then the D_U^A pass.
func (st *clfStep) pass(i int) {
	mo := st.mo
	if i == 0 {
		mo.superviseStep(&st.norm)
		return
	}
	mo.superviseStep(&st.lab)
	if st.useOE {
		// L_OE over the non-target anomaly candidates.
		p := &st.cand
		logits := p.net.Forward(p.xb)
		loss, grad := nn.SoftCrossEntropyInto(p.gradCE, logits, p.yb, p.cw)
		p.gradCE = grad
		mat.Scale(mo.cfg.Lambda1, grad.Data)
		p.net.BackwardParams(grad)
		p.loss = loss
	}
}

// superviseStep backpropagates one batch's cross-entropy plus its
// share of the entropy regularizer (Eq. 7) through p.net and records
// the batch loss in p.loss. p.reFrac is the batch's set-size fraction
// of |D_L| + |D_U^N|, implementing Eq. (7)'s combined normalization:
// the normal candidates receive nearly all of L_RE and the handful of
// labeled anomalies almost none, while each set's cross-entropy keeps
// its own 1/|set| normalization (Eq. 3), which is what lets a few
// hundred labels counterbalance tens of thousands of normal
// candidates. Minimizing the entropy boosts prediction confidence on
// D_L ∪ D_U^N as Section III-B2 describes (the printed equation omits
// the leading minus).
func (mo *Model) superviseStep(p *clfPass) {
	logits := p.net.Forward(p.xb)
	loss, grad := nn.SoftCrossEntropyInto(p.gradCE, logits, p.yb, nil)
	p.gradCE = grad
	if mo.cfg.UseRE && mo.cfg.Lambda2 != 0 {
		w := mo.cfg.Lambda2 * p.reFrac
		reLoss, reGrad := nn.EntropyInto(p.gradRE, logits)
		p.gradRE = reGrad
		loss += w * reLoss
		for i := range grad.Data {
			grad.Data[i] += w * reGrad.Data[i]
		}
	}
	p.net.BackwardParams(grad)
	p.loss = loss
}

// oneHotInto writes one one-hot target row per index into dst (grown
// or allocated via mat.Ensure and returned): row i has classes columns
// and a 1 in column offset+labels[idx[i]].
func oneHotInto(dst *mat.Matrix, classes, offset int, labels, idx []int) *mat.Matrix {
	dst = mat.Ensure(dst, len(idx), classes)
	clear(dst.Data)
	for i, j := range idx {
		dst.Set(i, offset+labels[j], 1)
	}
	return dst
}

// oeLabelsInto writes n copies of
// ỹ^o = (1/m, …, 1/m, 0, …, 0) — the modified outlier-exposure
// pseudo-label that marks non-target candidates as anomalous but of no
// known target type — into dst (grown or allocated via mat.Ensure and
// returned).
func (mo *Model) oeLabelsInto(dst *mat.Matrix, n int) *mat.Matrix {
	y := mat.Ensure(dst, n, mo.m+mo.k)
	v := 1 / float64(mo.m)
	for i := 0; i < n; i++ {
		row := y.Row(i)
		clear(row[mo.m:])
		for j := range row[:mo.m] {
			row[j] = v
		}
	}
	return y
}

// rowSet names rows of one matrix: the rows idx lists, or every row of
// x when idx is nil.
type rowSet struct {
	x   *mat.Matrix
	idx []int
}

func (s rowSet) len() int {
	if s.idx != nil {
		return len(s.idx)
	}
	return s.x.Rows
}

// forRows runs the classifier over the set in ClfBatch-row chunks
// (nn.ForEachBatch) and hands fn each row's softmax probabilities and
// logits, with i the row's position in the set. It is Fit's whole-set
// pass: the classifier's workspaces stay the size of a training batch
// and it keeps no reference into the set. The rows fn receives are
// workspaces, valid only during the call.
func (mo *Model) forRows(set rowSet, fn func(i int, probs, logits []float64)) {
	var probs *mat.Matrix
	nn.ForEachBatch(nil, set.x, set.idx, mo.cfg.ClfBatch, func(lo int, chunk *mat.Matrix) {
		logits := mo.clf.Forward(chunk)
		probs = nn.SoftmaxRowsInto(probs, logits)
		for r := 0; r < probs.Rows; r++ {
			fn(lo+r, probs.Row(r), logits.Row(r))
		}
	})
}

// maxProbs returns ε(x) = max_j p_j(x) for every row of the set.
func (mo *Model) maxProbs(set rowSet) []float64 {
	out := make([]float64, set.len())
	mo.forRows(set, func(i int, probs, _ []float64) { _, out[i] = mat.ArgMax(probs) })
	return out
}

// normalizeInverted maps values to weights via
// w_i = (max − v_i)/(max − min) — the shared form of Eqs. (4) and (5):
// the largest value gets weight 0, the smallest weight 1. A constant
// vector maps to all-ones.
func normalizeInverted(v []float64) []float64 {
	w := make([]float64, len(v))
	if len(v) == 0 {
		return w
	}
	lo, hi := mat.MinMax(v)
	span := hi - lo
	if span <= 0 {
		for i := range w {
			w[i] = 1
		}
		return w
	}
	for i, x := range v {
		w[i] = (hi - x) / span
	}
	return w
}

// argsortDesc returns indices ordering v from largest to smallest
// (stable on ties).
func argsortDesc(v []float64) []int {
	idx := make([]int, len(v))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return v[idx[a]] > v[idx[b]] })
	return idx
}

// validationAUPRC is the AUPRC of the Eq. (9) scores on the
// validation split, 0 if degenerate — the per-epoch criterion of
// best-epoch selection (Section IV-C).
func (mo *Model) validationAUPRC(v *dataset.EvalSet) float64 {
	scores := make([]float64, v.X.Rows)
	mo.forRows(rowSet{x: v.X}, func(i int, probs, _ []float64) { scores[i] = mo.targetScore(probs) })
	auprc, err := metrics.AUPRC(scores, v.TargetLabels())
	if err != nil {
		return 0
	}
	return auprc
}
