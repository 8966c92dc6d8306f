package core

import (
	"context"
	"errors"

	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/parallel"
)

// Float32 inference path. EnableF32 converts the fitted classifier's
// parameters to float32 once; InferF32 then mirrors Infer on the f32
// kernels (mat.Mul32 and, on capable amd64 hardware, the AVX2/FMA
// micro-kernels). Scores from this path are NOT bitwise-identical to
// Infer — they carry the f32 tolerance contract pinned by
// f32_tolerance_test.go and documented in DESIGN.md ("Numerical
// precision model"). The float64 path is untouched.

// ErrF32NotEnabled reports an InferF32 call before EnableF32.
var ErrF32NotEnabled = errors.New("targad: float32 inference not enabled")

// f32Replica bundles a float32 forward-pass replica with its input and
// widening workspaces, pooled on a free list like the f64 replicas.
type f32Replica struct {
	inf    *nn.Inference32
	x      *mat.Matrix32 // the batch narrowed to float32
	logits *mat.Matrix   // the f32 logits, widened
	probs  *mat.Matrix   // the f32 softmax rows, widened, when the result does not keep them
}

// EnableF32 builds (or rebuilds) the model's float32 parameter set from
// the current float64 parameters and resets the replica pool. Each call
// allocates a fresh set, so a set that replicas already read is never
// written again.
//
// Conversion is guarded: any NaN, ±Inf, or float32-overflowing
// parameter aborts with the typed *nn.ConvertError and leaves the
// model's f32 state disabled rather than serving Inf/NaN silently.
//
// Like Fit, EnableF32 must not run concurrently with InferF32 on the
// same model.
func (mo *Model) EnableF32() error {
	if mo.clf == nil {
		return errors.New("targad: model is not fitted")
	}
	p, err := mo.clf.Params32()
	mo.inferMu.Lock()
	mo.f32params = p // nil on error: f32 stays disabled
	mo.f32Free.reset()
	mo.inferMu.Unlock()
	return err
}

// InferF32 is the float32 twin of Infer: same result shape, same
// thread-safety (any number of goroutines on one model), same
// three-way identification — but the forward pass and softmax run in
// float32. It narrows x into the replica's float32 workspace, runs the
// f32 forward pass and softmax, widens the logits and probabilities
// exactly, and hands them to the decision tail Infer uses. Widening is
// exact and order-preserving, so the f64 reductions there equal their
// float32 counterparts on the f32 rows bit for bit. Thresholds stay
// the calibrated float64 values; only the scores compared against them
// carry f32 rounding. A row's results are deterministic for a fixed
// binary, CPU and model (neither the worker count nor the rows batched
// with it change them), but differ from Infer within the tolerance
// pinned by f32_tolerance_test.go.
func (mo *Model) InferF32(ctx context.Context, x *mat.Matrix, opt InferOptions) (_ *InferResult, err error) {
	defer recoverToError("infer-f32", &err)
	thresholds, err := mo.checkCall(ctx, x.Cols, opt.Strategies)
	if err != nil {
		return nil, err
	}
	mo.inferMu.Lock()
	p := mo.f32params
	mo.inferMu.Unlock()
	if p == nil {
		return nil, ErrF32NotEnabled
	}
	rep, ok := mo.f32Free.get()
	if !ok {
		rep = &f32Replica{inf: nn.NewInference32(p)}
	}
	defer mo.f32Free.put(rep)

	rep.x = mat.ToF32(rep.x, x)
	logits := rep.inf.Forward(rep.x)

	if len(opt.Strategies) == 0 && !opt.Probs {
		// Score-only requests skip materializing the distribution:
		// SoftmaxHeadMax32 is bitwise-identical to the softmax+argmax
		// below, so the answer doesn't depend on what else was asked
		// for.
		res := prepareResult(opt, x.Rows)
		if parallel.Serial(x.Rows, f32RowChunk) {
			// No closure on the serial path: a serving pass must not
			// allocate.
			headMaxRange(res.Scores, logits, mo.m, 0, x.Rows)
			return res, nil
		}
		parallel.ForEachChunkMin(x.Rows, f32RowChunk, func(lo, hi int) {
			headMaxRange(res.Scores, logits, mo.m, lo, hi)
		})
		return res, nil
	}

	// The logits are widened before the softmax overwrites them in
	// place (they are this replica's own workspace); the probabilities
	// land in the recycled result's Probs, a fresh matrix the result
	// keeps, or the replica's buffer when the result keeps neither.
	rep.logits = mat.ToF64(rep.logits, logits)
	if parallel.Serial(x.Rows, f32RowChunk) {
		softmax32Range(logits, 0, x.Rows)
	} else {
		parallel.ForEachChunkMin(x.Rows, f32RowChunk, func(lo, hi int) {
			softmax32Range(logits, lo, hi)
		})
	}
	var probs *mat.Matrix
	switch {
	case opt.Reuse != nil:
		probs = mat.ToF64(opt.Reuse.Probs, logits)
	case opt.Probs:
		probs = mat.ToF64(nil, logits)
	default:
		rep.probs = mat.ToF64(rep.probs, logits)
		probs = rep.probs
	}
	return mo.decide(probs, rep.logits, opt, thresholds), nil
}

// f32RowChunk is the fewest rows InferF32's row loops hand one worker.
const f32RowChunk = 256

// headMaxRange writes the score of logits rows [lo, hi) into scores.
func headMaxRange(scores []float64, logits *mat.Matrix32, m, lo, hi int) {
	for i := lo; i < hi; i++ {
		scores[i] = mat.SoftmaxHeadMax32(logits.Row(i), m)
	}
}

// softmax32Range replaces logits rows [lo, hi) with their softmax.
func softmax32Range(logits *mat.Matrix32, lo, hi int) {
	for i := lo; i < hi; i++ {
		mat.Softmax32(logits.Row(i), logits.Row(i))
	}
}
