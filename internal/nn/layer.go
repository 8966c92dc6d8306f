// Package nn is a compact, dependency-free neural-network substrate:
// dense layers with their activations, explicit backpropagation, the
// Adam optimizer, and the loss primitives used by TargAD and the deep
// baselines. It supports exactly what the paper's models need — batch
// training of multi-layer perceptrons on tabular float64 data — and is
// written for clarity and reproducibility rather than raw speed.
//
// Gradient convention: Forward is called with a batch (rows are
// instances); Backward receives dL/d(output) for the same batch and
// returns dL/d(input), accumulating parameter gradients internally.
// Parameter gradients are averaged over the batch by the caller
// dividing the loss gradient, not by the layer.
//
// # Buffer ownership
//
// Layers own per-layer workspace buffers, sized on first use and
// reused across batches, so steady-state training performs no
// allocation. The contract:
//
//   - Forward returns a matrix OWNED BY THE LAYER. It is valid until
//     the next Forward or Backward call on the same layer (and hence,
//     through MLP, on the same network). Callers that need the values
//     afterwards must Clone them.
//   - Backward may overwrite its grad argument in place (a stage
//     applies its activation derivative there); callers must treat
//     grad as consumed. The returned dL/d(input) is layer-owned with
//     the same lifetime rule as Forward's output.
//   - Forward keeps a reference to its input x as the backward
//     operand, and Backward reads the activation derivative from the
//     stage's own output; callers must mutate neither between Forward
//     and the matching Backward.
//
// # Inference-only networks
//
// NewInferenceMLP builds a network directly over existing parameter
// values: no gradient buffers, no initializer draw, no copy. It
// forwards exactly like a trained network over the same values, and
// ShareParams, Params and ZeroGrad (a no-op) work on it; Backward,
// BackwardParams, AddGrads and TrainReplica panic, naming the network
// inference-only.
package nn

import (
	"fmt"

	"targad/internal/mat"
	"targad/internal/rng"
)

// Param is a named, flat parameter tensor with its gradient buffer.
// Grad is nil on an inference-only network.
type Param struct {
	Name string
	Data []float64
	Grad []float64
}

// ZeroGrad clears the gradient buffer.
func (p *Param) ZeroGrad() {
	for i := range p.Grad {
		p.Grad[i] = 0
	}
}

// Dense is one fully connected stage computing y = act(x·W + b). It
// is the only layer type: an MLP is a list of Dense stages, each
// carrying the activation that follows it (Identity when none does).
type Dense struct {
	In, Out int
	Act     Activation
	W       *Param // In×Out, row-major
	B       *Param // Out

	lastIn *mat.Matrix

	// Workspaces, sized on first use and reused across batches.
	out   *mat.Matrix // forward output, act(x·W + b)
	gin   *mat.Matrix // backward dL/d(input)
	bSums []float64   // ColSumsInto scratch for the bias gradient

	// Long-lived matrix views over the parameter buffers, built once so
	// the hot path never constructs (and heap-allocates) view headers.
	wView  mat.Matrix // In×Out over W.Data
	gwView mat.Matrix // In×Out over W.Grad
}

// NewDense returns a Dense stage with activation act and weights drawn
// from the given initializer.
func NewDense(in, out int, act Activation, init Initializer, r *rng.RNG) *Dense {
	w, b := denseParams(in, out, make([]float64, in*out), make([]float64, out))
	w.Grad, b.Grad = make([]float64, in*out), make([]float64, out)
	d := newDenseOver(in, out, act, w, b)
	init(d.W.Data, in, out, r)
	return d
}

// denseParams names the weight and bias tensors of an in×out stage over
// the given values, with no gradient buffers.
func denseParams(in, out int, w, b []float64) (*Param, *Param) {
	return &Param{Name: fmt.Sprintf("dense%dx%d.W", in, out), Data: w},
		&Param{Name: fmt.Sprintf("dense%dx%d.b", in, out), Data: b}
}

// requireGrads panics when d has no gradient buffers: an
// inference-only stage cannot train.
func (d *Dense) requireGrads(op string) {
	if d.W.Grad == nil || d.B.Grad == nil {
		panic(fmt.Sprintf("nn: %s on an inference-only network (built without gradient buffers)", op))
	}
}

// newDenseOver returns a Dense stage over existing parameter tensors.
func newDenseOver(in, out int, act Activation, w, b *Param) *Dense {
	return &Dense{
		In: in, Out: out, Act: act, W: w, B: b,
		wView:  mat.Matrix{Rows: in, Cols: out, Data: w.Data},
		gwView: mat.Matrix{Rows: in, Cols: out, Data: w.Grad},
	}
}

// Forward computes act(x·W + b) for the batch x: the GEMM, then one
// pass that adds the bias and applies the activation in place.
func (d *Dense) Forward(x *mat.Matrix) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense forward with %d features, want %d", x.Cols, d.In))
	}
	d.lastIn = x
	d.out = mat.Ensure(d.out, x.Rows, d.Out)
	if _, err := mat.Mul(d.out, x, &d.wView); err != nil {
		panic(err)
	}
	addBiasAct(d.out, d.B.Data, d.Act)
	return d.out
}

// Backward receives dL/d(output) and returns dL/d(input), accumulating
// the parameter gradients. The activation's derivative is applied to
// grad in place, so the caller must treat grad as consumed.
func (d *Dense) Backward(grad *mat.Matrix) *mat.Matrix {
	d.accumulateGrads(grad)
	// dL/dx = grad·Wᵀ
	d.gin = mat.Ensure(d.gin, grad.Rows, d.In)
	if _, err := mat.MulABT(d.gin, grad, &d.wView); err != nil {
		panic(err)
	}
	return d.gin
}

// accumulateGrads is the parameter half of Backward: it turns grad into
// dL/d(x·W + b) in place, then each element of W.Grad and B.Grad
// receives exactly one add of its finished chain.
func (d *Dense) accumulateGrads(grad *mat.Matrix) {
	d.requireGrads("backward")
	if d.lastIn == nil {
		panic("nn: dense backward before forward")
	}
	actGrad(d.Act, grad.Data, d.out.Data)
	// dW += xᵀ·grad, accumulated straight into the gradient buffer
	// through a view — no scratch matrix.
	if _, err := mat.MulATBAcc(&d.gwView, d.lastIn, grad); err != nil {
		panic(err)
	}
	// db += column sums of grad.
	d.bSums = mat.ColSumsInto(d.bSums, grad)
	mat.Axpy(1, d.bSums, d.B.Grad)
}
