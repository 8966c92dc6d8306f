package core

import (
	"bufio"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"sync"

	"targad/internal/atomicfile"
	"targad/internal/autoencoder"
	"targad/internal/cluster"
	"targad/internal/dataset"
	"targad/internal/faultinject"
	"targad/internal/mat"
	"targad/internal/nn"
)

// CheckpointConfig enables crash-safe training. When Path is set, Fit
// persists its progress there — the clustering result, the
// reconstruction errors of each completed per-cluster autoencoder, and
// the classifier's parameters, optimizer moments, and epoch count — and
// a later Fit with the same seed, configuration, and data resumes from
// the file instead of starting over. Resumption is bitwise exact: the resumed run reconstructs
// every RNG stream by replaying the completed epochs' draws, so the
// final model is identical to one trained without interruption.
//
// The file is a crash-recovery artifact, not a model save: it is
// removed when Fit completes successfully (use Model.Save for the
// trained model). A checkpoint written by a different run — different
// seed, hyperparameters, or data shape — is rejected with a
// *CheckpointError rather than silently ignored.
type CheckpointConfig struct {
	// Path is the checkpoint file; empty disables checkpointing. The
	// classifier is checkpointed after every epoch, and autoencoder
	// progress as each cluster completes.
	Path string
}

// checkpointFile is the gob payload of a training checkpoint (wrapped
// in the versioned envelope of persist.go).
type checkpointFile struct {
	// Identity: a checkpoint only resumes the exact run that wrote it.
	Seed    int64
	FitHash uint64
	M, Dim  int

	// Clustering (Algorithm 1, line 1).
	K              int
	HaveClustering bool
	Assignment     []int
	Centroids      []float64 // K×Dim, row-major
	Sizes          []int
	Inertia        float64
	Iterations     int

	// Per-cluster autoencoders (lines 2–5): each finished cluster's
	// S^Rec, aligned with its rows in Assignment order. Entries fill in
	// as clusters complete, in any order. Only S^Rec feeds the rest of
	// Fit, so the autoencoders themselves are not kept; format v1 also
	// stored their parameters (AEParams), which gob now skips.
	AEDone []bool
	AEErrs [][]float64

	// Classifier (lines 8–17).
	ClfAttempt    int // numerical-retry attempt the epochs belong to
	ClfEpochsDone int
	ClfParams     [][]float64
	Adam          nn.AdamState
	EpochLosses   []float64
	WeightHist    [][]float64
	BestVal       float64
	BestParams    [][]float64
}

// checkpointer owns one training run's checkpoint file.
type checkpointer struct {
	path string

	mu    sync.Mutex
	state checkpointFile

	// onWrite, when set (tests), runs after every successful write
	// with the number of writes so far — the hook the interruption
	// tests use to kill training at exact checkpoint boundaries.
	onWrite func(writes int)
	writes  int
}

// fitHash fingerprints everything that must match for a checkpoint to
// be resumable: the seed, the training-relevant configuration, and the
// data shape.
func (mo *Model) fitHash(train *dataset.TrainSet) uint64 {
	h := fnv.New64a()
	c := mo.cfg
	fmt.Fprintf(h, "seed=%d m=%d u=%dx%d l=%d|k=%d,%d,%d a=%g lp=%d eta=%g l1=%g l2=%g oe=%v re=%v fw=%v",
		mo.seed, train.NumTargetTypes, train.Unlabeled.Rows, train.Unlabeled.Cols, train.Labeled.Rows,
		c.K, c.KMin, c.KMax, c.Alpha, c.LargePoolThreshold, c.Eta, c.Lambda1, c.Lambda2, c.UseOE, c.UseRE, c.FreezeWeights)
	fmt.Fprintf(h, "|ae=%v,%g,%d,%d|clf=%v,%g,%d,%d",
		c.AEHidden, c.AELR, c.AEBatch, c.AEEpochs, c.ClfHidden, c.ClfLR, c.ClfBatch, c.ClfEpochs)
	if c.WarmStart != nil {
		fmt.Fprintf(h, "|ws=%x", c.WarmStart.fingerprint())
	}
	return h.Sum64()
}

// newCheckpointer opens (or initializes) the configured checkpoint for
// this Fit. A file from a mismatched run fails with *CheckpointError.
func (mo *Model) newCheckpointer(train *dataset.TrainSet) (*checkpointer, error) {
	cc := mo.cfg.Checkpoint
	ck := &checkpointer{path: cc.Path}
	hash := mo.fitHash(train)
	f, err := os.Open(cc.Path)
	if errors.Is(err, os.ErrNotExist) {
		ck.state = checkpointFile{Seed: mo.seed, FitHash: hash, M: mo.m, Dim: mo.dim, BestVal: -1}
		return ck, nil
	}
	if err != nil {
		return nil, &CheckpointError{Path: cc.Path, Op: "read", Err: err}
	}
	defer f.Close()
	var st checkpointFile
	if err := readEnvelope(bufio.NewReader(f), kindCheckpoint, checkpointFormatVersion, &st); err != nil {
		return nil, &CheckpointError{Path: cc.Path, Op: "read", Err: err}
	}
	if st.Seed != mo.seed || st.FitHash != hash {
		return nil, &CheckpointError{Path: cc.Path, Op: "validate",
			Err: fmt.Errorf("checkpoint belongs to a different run (seed/config/data changed); delete it to start fresh")}
	}
	ck.state = st
	return ck, nil
}

// write persists the current state atomically (atomicfile.Write). A
// failure — including one injected at the CheckpointWrite fault
// point — surfaces as a *CheckpointError; training treats it as fatal
// rather than running on without its crash-recovery state.
func (ck *checkpointer) write() error {
	if faultinject.Fire(faultinject.CheckpointWrite) {
		return &CheckpointError{Path: ck.path, Op: "write", Err: errors.New("injected write failure")}
	}
	if err := atomicfile.Write(ck.path, func(w io.Writer) error {
		return writeEnvelope(w, kindCheckpoint, checkpointFormatVersion, &ck.state)
	}); err != nil {
		return &CheckpointError{Path: ck.path, Op: "write", Err: err}
	}
	ck.writes++
	if ck.onWrite != nil {
		ck.onWrite(ck.writes)
	}
	return nil
}

// finish removes the checkpoint after a successful Fit.
func (ck *checkpointer) finish() {
	os.Remove(ck.path)
}

// haveClustering reports whether the clustering stage is checkpointed.
func (ck *checkpointer) haveClustering() bool {
	return ck != nil && ck.state.HaveClustering
}

// clusterResult rebuilds the checkpointed clustering.
func (ck *checkpointer) clusterResult(dim int) *cluster.Result {
	cent := mat.New(ck.state.K, dim)
	copy(cent.Data, ck.state.Centroids)
	return &cluster.Result{
		K:          ck.state.K,
		Centroids:  cent,
		Assignment: ck.state.Assignment,
		Sizes:      ck.state.Sizes,
		Inertia:    ck.state.Inertia,
		Iterations: ck.state.Iterations,
	}
}

// saveClustering records the clustering result and sizes the per-AE
// slots.
func (ck *checkpointer) saveClustering(res *cluster.Result) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.state.K = res.K
	ck.state.HaveClustering = true
	ck.state.Assignment = res.Assignment
	ck.state.Centroids = append([]float64(nil), res.Centroids.Data...)
	ck.state.Sizes = res.Sizes
	ck.state.Inertia = res.Inertia
	ck.state.Iterations = res.Iterations
	ck.state.AEDone = make([]bool, res.K)
	ck.state.AEErrs = make([][]float64, res.K)
	return ck.write()
}

// clusterResume hands the checkpointed S^Rec of completed clusters to
// TrainPerCluster and wires the per-cluster completion hook that
// extends it.
func (ck *checkpointer) clusterResume() *autoencoder.ClusterResume {
	res := &autoencoder.ClusterResume{Errs: make([][]float64, ck.state.K)}
	for i, done := range ck.state.AEDone {
		if done {
			res.Errs[i] = ck.state.AEErrs[i]
		}
	}
	res.OnCluster = func(i int, es []float64) error {
		ck.mu.Lock()
		defer ck.mu.Unlock()
		ck.state.AEDone[i] = true
		ck.state.AEErrs[i] = es
		return ck.write()
	}
	return res
}

// classifierResume reports whether the checkpoint can fast-forward the
// given retry attempt, and how many epochs it covers.
func (ck *checkpointer) classifierResume(attempt int) int {
	if ck == nil || ck.state.ClfAttempt != attempt {
		return 0
	}
	return ck.state.ClfEpochsDone
}

// restoreClassifier writes the checkpointed classifier parameters,
// optimizer moments, and training trajectory back into a freshly
// constructed model/optimizer pair.
func (ck *checkpointer) restoreClassifier(mo *Model, opt *nn.Adam) (bestVal float64, bestParams [][]float64, err error) {
	params := mo.clf.Params()
	if len(params) != len(ck.state.ClfParams) {
		return 0, nil, &CheckpointError{Path: ck.path, Op: "validate",
			Err: fmt.Errorf("classifier has %d param tensors, checkpoint %d", len(params), len(ck.state.ClfParams))}
	}
	for i, p := range params {
		if len(p.Data) != len(ck.state.ClfParams[i]) {
			return 0, nil, &CheckpointError{Path: ck.path, Op: "validate",
				Err: fmt.Errorf("classifier param %d has %d values, checkpoint %d", i, len(p.Data), len(ck.state.ClfParams[i]))}
		}
		copy(p.Data, ck.state.ClfParams[i])
	}
	if err := opt.Restore(params, ck.state.Adam); err != nil {
		return 0, nil, &CheckpointError{Path: ck.path, Op: "validate", Err: err}
	}
	mo.EpochLosses = append([]float64(nil), ck.state.EpochLosses...)
	mo.weightHist = nil
	for _, w := range ck.state.WeightHist {
		mo.weightHist = append(mo.weightHist, append([]float64(nil), w...))
	}
	return ck.state.BestVal, ck.state.BestParams, nil
}

// saveClassifier checkpoints the classifier after a completed epoch.
func (ck *checkpointer) saveClassifier(mo *Model, opt *nn.Adam, attempt, epochsDone int, bestVal float64, bestParams [][]float64) error {
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.state.ClfAttempt = attempt
	ck.state.ClfEpochsDone = epochsDone
	ck.state.ClfParams = snapshotParams(mo.clf)
	ck.state.Adam = opt.Snapshot(mo.clf.Params())
	ck.state.EpochLosses = append([]float64(nil), mo.EpochLosses...)
	ck.state.WeightHist = mo.weightHist
	ck.state.BestVal = bestVal
	ck.state.BestParams = bestParams
	return ck.write()
}

// resetClassifier discards checkpointed classifier progress when a
// numerical retry restarts the stage under a new attempt index.
func (ck *checkpointer) resetClassifier(attempt int) {
	if ck == nil {
		return
	}
	ck.mu.Lock()
	defer ck.mu.Unlock()
	ck.state.ClfAttempt = attempt
	ck.state.ClfEpochsDone = 0
	ck.state.ClfParams = nil
	ck.state.Adam = nn.AdamState{}
	ck.state.EpochLosses = nil
	ck.state.WeightHist = nil
	ck.state.BestVal = -1
	ck.state.BestParams = nil
}
