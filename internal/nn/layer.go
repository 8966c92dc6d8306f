// Package nn is a compact, dependency-free neural-network substrate:
// dense layers, activations, explicit backpropagation, Adam/SGD
// optimizers, and the loss primitives used by TargAD and the deep
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
//   - Backward may overwrite its grad argument in place (activation
//     layers do) and may return it; callers must treat grad as
//     consumed. The returned dL/d(input) is layer-owned with the same
//     lifetime rule as Forward's output.
//   - Forward keeps a reference to its input x as the backward
//     operand; callers must not mutate x between Forward and the
//     matching Backward.
package nn

import (
	"fmt"

	"targad/internal/mat"
	"targad/internal/rng"
)

// Param is a named, flat parameter tensor with its gradient buffer.
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

// Layer is one differentiable stage of a network.
type Layer interface {
	// Forward computes the layer output for a batch x. The returned
	// matrix is a layer-owned workspace, valid until the next
	// Forward/Backward call on this layer.
	Forward(x *mat.Matrix) *mat.Matrix
	// Backward receives dL/d(output) and returns dL/d(input),
	// accumulating parameter gradients as a side effect. It may
	// overwrite grad in place; the returned matrix follows the same
	// layer-owned lifetime rule as Forward's output.
	Backward(grad *mat.Matrix) *mat.Matrix
	// Params returns the layer's trainable parameters (possibly none).
	Params() []*Param
}

// Dense is a fully connected layer computing y = x·W + b.
type Dense struct {
	In, Out int
	W       *Param // In×Out, row-major
	B       *Param // Out

	lastIn *mat.Matrix

	// Workspaces, sized on first use and reused across batches.
	out    *mat.Matrix // forward output
	gin    *mat.Matrix // backward dL/d(input)
	bSums  []float64   // ColSumsInto scratch for the bias gradient
	params []*Param

	// Long-lived matrix views over the parameter buffers, built once so
	// the hot path never constructs (and heap-allocates) view headers.
	wView  mat.Matrix // In×Out over W.Data
	gwView mat.Matrix // In×Out over W.Grad
}

// NewDense returns a Dense layer with weights drawn from the given
// initializer.
func NewDense(in, out int, init Initializer, r *rng.RNG) *Dense {
	d := &Dense{
		In:  in,
		Out: out,
		W:   &Param{Name: fmt.Sprintf("dense%dx%d.W", in, out), Data: make([]float64, in*out), Grad: make([]float64, in*out)},
		B:   &Param{Name: fmt.Sprintf("dense%dx%d.b", in, out), Data: make([]float64, out), Grad: make([]float64, out)},
	}
	d.params = []*Param{d.W, d.B}
	d.wView = mat.Matrix{Rows: in, Cols: out, Data: d.W.Data}
	d.gwView = mat.Matrix{Rows: in, Cols: out, Data: d.W.Grad}
	init(d.W.Data, in, out, r)
	return d
}

// Forward implements Layer.
func (d *Dense) Forward(x *mat.Matrix) *mat.Matrix {
	if x.Cols != d.In {
		panic(fmt.Sprintf("nn: dense forward with %d features, want %d", x.Cols, d.In))
	}
	d.lastIn = x
	d.out = mat.Ensure(d.out, x.Rows, d.Out)
	if _, err := mat.Mul(d.out, x, &d.wView); err != nil {
		panic(err)
	}
	if err := mat.AddRowVector(d.out, d.B.Data); err != nil {
		panic(err)
	}
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *mat.Matrix) *mat.Matrix {
	d.accumulateGrads(grad)
	// dL/dx = grad·Wᵀ
	d.gin = mat.Ensure(d.gin, grad.Rows, d.In)
	if _, err := mat.MulABT(d.gin, grad, &d.wView); err != nil {
		panic(err)
	}
	return d.gin
}

// accumulateGrads is the parameter half of Backward: each element of
// W.Grad and B.Grad receives exactly one add of its finished chain.
func (d *Dense) accumulateGrads(grad *mat.Matrix) {
	if d.lastIn == nil {
		panic("nn: dense backward before forward")
	}
	// dW += xᵀ·grad, accumulated straight into the gradient buffer
	// through a view — no scratch matrix.
	if _, err := mat.MulATBAcc(&d.gwView, d.lastIn, grad); err != nil {
		panic(err)
	}
	// db += column sums of grad.
	d.bSums = mat.ColSumsInto(d.bSums, grad)
	mat.Axpy(1, d.bSums, d.B.Grad)
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return d.params }
