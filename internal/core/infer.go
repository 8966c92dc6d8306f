package core

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sync"

	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/nn"
)

// ErrNotCalibrated reports an identification request for a strategy the
// model has no threshold for (e.g. it was trained without non-target
// candidates). Callers that treat identification as best-effort — the
// serving layer omitting decisions rather than failing the request —
// test for it with errors.Is.
var ErrNotCalibrated = errors.New("targad: identification strategy not calibrated")

// ErrDimMismatch reports input rows whose width is not the model's
// feature dimension; the returned error wraps it with both widths.
var ErrDimMismatch = errors.New("targad: input dim")

// InferOptions selects what one Infer pass computes beyond the Eq. (9)
// target scores.
type InferOptions struct {
	// Strategies lists the Section III-C identification strategies to
	// apply; the result carries one decision vector per entry. Empty
	// skips identification entirely.
	Strategies []OODStrategy
	// Probs requests the per-class probability matrix in the result.
	Probs bool
	// Reuse recycles a previous result's buffers instead of allocating
	// fresh ones (the serving arenas pass their pooled InferResult
	// here). The recycled result must not be read concurrently with the
	// call. In reuse mode Probs buffers persist in the result even when
	// Probs is false — only read result.Probs when Probs was requested —
	// and stale decision vectors from strategies not in this call are
	// dropped. Values are bitwise-identical to a fresh call.
	Reuse *InferResult
}

// InferResult is one batch's inference output. Every field is
// caller-owned: nothing references model workspaces, so results outlive
// any later call on the model (and may be handed back via
// InferOptions.Reuse to recycle their storage).
type InferResult struct {
	// Scores holds S^tar per row (Eq. 9).
	Scores []float64
	// Kinds holds the three-way decision per requested strategy.
	Kinds map[OODStrategy][]dataset.Kind
	// Probs holds softmax class probabilities (m+k columns) when
	// requested.
	Probs *mat.Matrix
}

// maxInferReplicas caps each replica free list. Steady-state serving
// converges on one replica per concurrently scoring goroutine; a
// release past the cap leaves the replica to the GC.
const maxInferReplicas = 32

// freeList is a LIFO of pooled inference replicas, one per precision,
// built over the installed classifier. setClassifier and EnableF32
// empty it, so a replica never outlives the parameters it reads.
type freeList[T any] struct {
	mu    sync.Mutex
	items []T
}

// get pops the most recently released replica; ok is false when the
// list is empty and the caller must build one.
func (l *freeList[T]) get() (r T, ok bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.items)
	if n == 0 {
		return r, false
	}
	r = l.items[n-1]
	clear(l.items[n-1:])
	l.items = l.items[:n-1]
	return r, true
}

// put returns a replica to the list, dropping it past the cap.
func (l *freeList[T]) put(r T) {
	l.mu.Lock()
	if len(l.items) < maxInferReplicas {
		l.items = append(l.items, r)
	}
	l.mu.Unlock()
}

// reset drops every pooled replica.
func (l *freeList[T]) reset() {
	l.mu.Lock()
	l.items = nil
	l.mu.Unlock()
}

// setClassifier installs clf as the model's classifier — in every Fit
// attempt and in Load — and, under inferMu, empties both replica free
// lists and drops the float32 parameter set, so no later Infer runs on
// a previous classifier's replica and InferF32 answers
// ErrF32NotEnabled until EnableF32 runs again.
func (mo *Model) setClassifier(clf *nn.MLP) {
	mo.inferMu.Lock()
	defer mo.inferMu.Unlock()
	mo.clf = clf
	mo.f32params = nil
	mo.clfFree.reset()
	mo.f32Free.reset()
}

// ensure grows s to n elements, keeping capacity like mat.Ensure.
func ensure[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// prepareResult readies the result buffers for rows: the recycled
// result from opt.Reuse when set (stale strategy vectors dropped so a
// lookup for a strategy this call did not compute cannot hit old data),
// a fresh one otherwise.
func prepareResult(opt InferOptions, rows int) *InferResult {
	res := opt.Reuse
	if res == nil {
		res = &InferResult{}
	}
	res.Scores = ensure(res.Scores, rows)
	if len(opt.Strategies) > 0 {
		if res.Kinds == nil {
			res.Kinds = make(map[OODStrategy][]dataset.Kind, len(opt.Strategies))
		} else {
			for k := range res.Kinds {
				if !slices.Contains(opt.Strategies, k) {
					delete(res.Kinds, k)
				}
			}
		}
		for _, s := range opt.Strategies {
			res.Kinds[s] = ensure(res.Kinds[s], rows)
		}
	} else if res.Kinds != nil {
		clear(res.Kinds)
	}
	return res
}

// checkCall validates one inference call — live context, fitted
// model, input width — and resolves the calibrated threshold per
// requested strategy into a flat array indexed by the strategy value
// (the three strategies are 0, 1, 2), failing with ErrNotCalibrated on
// any gap or unknown strategy.
func (mo *Model) checkCall(ctx context.Context, cols int, strategies []OODStrategy) (thresholds [3]float64, err error) {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			return thresholds, err
		}
	}
	if mo.clf == nil {
		return thresholds, errors.New("targad: model is not fitted")
	}
	if cols != mo.dim {
		return thresholds, fmt.Errorf("%w %d, want %d", ErrDimMismatch, cols, mo.dim)
	}
	for _, s := range strategies {
		thr, ok := mo.idThreshold[s]
		if !ok || uint(s) >= uint(len(thresholds)) {
			return thresholds, fmt.Errorf("%w: %s", ErrNotCalibrated, s)
		}
		thresholds[s] = thr
	}
	return thresholds, nil
}

// Infer scores x on a pooled parameter-sharing replica of the
// classifier. Any number of goroutines may call it, or Score and
// Identify, which wrap it, concurrently on one fitted (or loaded)
// Model. Replicas share the exact parameter tensors and every kernel
// computes each row independently of which other rows share its batch,
// so a row's outputs do not depend on the replica, the batch, or the
// worker count.
//
// Infer must not run concurrently with Fit: training mutates the
// shared parameters.
func (mo *Model) Infer(ctx context.Context, x *mat.Matrix, opt InferOptions) (res *InferResult, err error) {
	defer recoverToError("infer", &err)
	thresholds, err := mo.checkCall(ctx, x.Cols, opt.Strategies)
	if err != nil {
		return nil, err
	}
	return mo.infer(x, opt, thresholds), nil
}

// infer is the one f64 inference body: the forward pass on a pooled
// replica, then the softmax and decision tail. The call must have
// passed checkCall, which produced thresholds.
func (mo *Model) infer(x *mat.Matrix, opt InferOptions, thresholds [3]float64) *InferResult {
	clf, ok := mo.clfFree.get()
	if !ok {
		clf = mo.clf.ShareParams()
	}
	defer mo.clfFree.put(clf)
	return mo.softmaxDecide(clf.Forward(x), opt, thresholds)
}

// softmaxDecide is the tail both precisions end in: the row softmax of
// one batch's float64 logits, then decide. The softmax lands in a
// caller-owned matrix (never a workspace): the recycled result's Probs
// in reuse mode, a fresh allocation otherwise — SoftmaxRowsInto(nil, ·)
// is SoftmaxRows, so the values are the same either way.
func (mo *Model) softmaxDecide(logits *mat.Matrix, opt InferOptions, thresholds [3]float64) *InferResult {
	var probsDst *mat.Matrix
	if opt.Reuse != nil {
		probsDst = opt.Reuse.Probs
	}
	return mo.decide(nn.SoftmaxRowsInto(probsDst, logits), logits, opt, thresholds)
}

// decide is the one decision tail behind every inference path: the
// Eq. (9) target score and the Section III-C three-way decision per
// requested strategy, read off one batch's softmax rows and logits.
// It is one serial pass: the per-row work is a few comparisons and,
// for ES/ED, one exponential per class, so a worker fan-out would cost
// more than it saves. probs becomes the result's Probs when opt.Probs
// or opt.Reuse is set, so it must then be caller-owned.
func (mo *Model) decide(probs, logits *mat.Matrix, opt InferOptions, thresholds [3]float64) *InferResult {
	res := prepareResult(opt, probs.Rows)
	for i := 0; i < probs.Rows; i++ {
		mo.decideRow(res, i, probs.Row(i), logits.Row(i), opt.Strategies, thresholds)
	}
	if opt.Probs || opt.Reuse != nil {
		res.Probs = probs
	}
	return res
}

// decideRow writes row i's target score and its decision under each
// strategy into res, from the row's softmax probabilities and logits.
func (mo *Model) decideRow(res *InferResult, i int, probs, logits []float64, strategies []OODStrategy, thresholds [3]float64) {
	res.Scores[i] = mo.targetScore(probs)
	if len(strategies) == 0 {
		return
	}
	normal := mo.isNormal(probs)
	for _, s := range strategies {
		switch {
		case normal:
			res.Kinds[s][i] = dataset.KindNormal
		case idness(s, probs, logits) >= thresholds[s]:
			res.Kinds[s][i] = dataset.KindTarget
		default:
			res.Kinds[s][i] = dataset.KindNonTarget
		}
	}
}

// targetScore is Eq. (9) for one row: S^tar = max_{j ∈ [1,m]} p_j.
func (mo *Model) targetScore(probs []float64) float64 {
	_, s := mat.ArgMax(probs[:mo.m])
	return s
}

// Score implements detector.Detector with Eq. (9):
// S^tar(x) = max_{j ∈ [1,m]} p_j(x). It is Infer without options; like
// Fit, it converts internal panics into a *InternalError at the
// boundary.
func (mo *Model) Score(ctx context.Context, x *mat.Matrix) (scores []float64, err error) {
	defer recoverToError("score", &err)
	thresholds, err := mo.checkCall(ctx, x.Cols, nil)
	if err != nil {
		return nil, err
	}
	return mo.infer(x, InferOptions{}, thresholds).Scores, nil
}

// Identify performs the three-way classification of Section III-C:
// an instance is normal when Σ_{j=m+1..m+k} p_j > k/(m+k); otherwise
// it is anomalous and the OOD strategy splits it into target
// (ID-ness above the calibrated threshold) or non-target. A strategy
// the model has no threshold for fails with ErrNotCalibrated. It is
// Infer with one strategy.
func (mo *Model) Identify(x *mat.Matrix, strat OODStrategy) ([]dataset.Kind, error) {
	res, err := mo.Infer(context.Background(), x, InferOptions{Strategies: []OODStrategy{strat}})
	if err != nil {
		return nil, err
	}
	return res.Kinds[strat], nil
}
