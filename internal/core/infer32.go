package core

import (
	"context"
	"errors"

	"targad/internal/mat"
	"targad/internal/nn"
)

// Float32 inference path. EnableF32 converts the fitted classifier's
// parameters to float32 once; InferF32 then runs the forward pass on
// the f32 kernels (mat.Mul32 and, on capable amd64 hardware, the
// AVX2/FMA micro-kernels), widens the logits exactly, and ends in the
// same float64 softmax and decision tail as Infer. The two precisions
// differ only in the forward pass. Scores from this path are NOT
// bitwise-identical to Infer — they carry the f32 tolerance contract
// pinned by f32_tolerance_test.go and documented in DESIGN.md
// ("Numerical precision model"). The float64 path is untouched.

// ErrF32NotEnabled reports an InferF32 call before EnableF32.
var ErrF32NotEnabled = errors.New("targad: float32 inference not enabled")

// f32Replica bundles a float32 forward-pass replica with its input and
// widening workspaces, pooled on a free list like the f64 replicas.
type f32Replica struct {
	inf    *nn.Inference32
	x      *mat.Matrix32 // the batch narrowed to float32
	logits *mat.Matrix   // the f32 logits, widened
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
// three-way identification — but the forward pass runs in float32. It
// narrows x into the replica's float32 workspace, runs the f32 forward
// pass, widens the logits exactly, and hands them to the softmax and
// decision tail Infer ends in, so a row's probabilities are the
// float64 softmax of its f32 logits. Thresholds stay the calibrated
// float64 values; only the logits they are read off carry f32
// rounding. A row's results are deterministic for a fixed binary, CPU
// and model (neither the worker count nor the rows batched with it
// change them), but differ from Infer within the tolerance pinned by
// f32_tolerance_test.go.
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
	rep.logits = mat.ToF64(rep.logits, rep.inf.Forward(rep.x))
	return mo.softmaxDecide(rep.logits, opt, thresholds), nil
}
