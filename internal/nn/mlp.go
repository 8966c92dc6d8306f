package nn

import (
	"fmt"
	"math"

	"targad/internal/mat"
	"targad/internal/rng"
)

// MLP is a sequential multi-layer perceptron.
//
// Forward and Backward return layer-owned workspace buffers (see the
// package-level buffer-ownership contract): the returned matrix is
// valid until the next Forward/Backward call on the same network, and
// callers that need it longer must Clone it.
type MLP struct {
	Layers []*Dense

	params []*Param // cached Params() result; layer topology is fixed
}

// MLPConfig describes an MLP's topology.
type MLPConfig struct {
	// Dims lists the layer widths from input to output,
	// e.g. {196, 64, 32} builds 196→64→32.
	Dims []int
	// Hidden is the activation after every hidden layer.
	Hidden Activation
	// Output is the activation after the final layer
	// (Identity for logits, Sigmoid for [0,1] reconstructions).
	Output Activation
	// Init is the weight initializer; HeNormal when nil-equivalent
	// callers pass nil.
	Init Initializer
}

// NewMLP builds an MLP from cfg using the provided RNG for weight
// initialization.
func NewMLP(cfg MLPConfig, r *rng.RNG) (*MLP, error) {
	if err := cfg.checkDims(); err != nil {
		return nil, err
	}
	init := cfg.Init
	if init == nil {
		init = HeNormal
	}
	m := &MLP{Layers: make([]*Dense, len(cfg.Dims)-1)}
	for i := range m.Layers {
		m.Layers[i] = NewDense(cfg.Dims[i], cfg.Dims[i+1], cfg.act(i), init, r)
	}
	return m, nil
}

// NewInferenceMLP builds an inference-only MLP with cfg's topology
// directly over params: the weight and bias tensors in Params order,
// each exactly its stage's size. The layers read those slices in place
// (nothing is copied, cfg.Init is not drawn) and carry no gradient
// buffers, so the network forwards bitwise like any MLP over the same
// values but cannot train (see the package doc). Shapes are checked
// against the tensors before anything is sized, so a forged width
// fails here rather than allocating.
func NewInferenceMLP(cfg MLPConfig, params [][]float64) (*MLP, error) {
	if err := cfg.checkDims(); err != nil {
		return nil, err
	}
	dims := cfg.Dims
	layers := len(dims) - 1
	if len(params) != 2*layers {
		return nil, fmt.Errorf("nn: %d param tensors, want %d for %d dense layers", len(params), 2*layers, layers)
	}
	for l := 0; l < layers; l++ {
		in, out := dims[l], dims[l+1]
		if w := params[2*l]; in > math.MaxInt/out || len(w) != in*out {
			return nil, fmt.Errorf("nn: param %d has %d values, want %d×%d", 2*l, len(w), in, out)
		}
		if b := params[2*l+1]; len(b) != out {
			return nil, fmt.Errorf("nn: param %d has %d values, want %d", 2*l+1, len(b), out)
		}
	}
	m := &MLP{Layers: make([]*Dense, layers)}
	for l := range m.Layers {
		in, out := dims[l], dims[l+1]
		w, b := denseParams(in, out, params[2*l], params[2*l+1])
		m.Layers[l] = newDenseOver(in, out, cfg.act(l), w, b)
	}
	return m, nil
}

// checkDims rejects a topology with fewer than two widths or a width
// below one.
func (cfg MLPConfig) checkDims() error {
	if len(cfg.Dims) < 2 {
		return fmt.Errorf("nn: MLP needs at least 2 dims, got %d", len(cfg.Dims))
	}
	for i, d := range cfg.Dims {
		if d <= 0 {
			return fmt.Errorf("nn: MLP dim %d is %d, must be positive", i, d)
		}
	}
	return nil
}

// act is the activation after layer i: Hidden, or Output for the last.
func (cfg MLPConfig) act(i int) Activation {
	if i == len(cfg.Dims)-2 {
		return cfg.Output
	}
	return cfg.Hidden
}

// Reinit redraws m's weights in place from r exactly as NewMLP draws
// them with the same Init, and zeroes every bias and gradient. The
// layers keep their workspaces, so a reinitialised network computes
// bitwise what a fresh NewMLP(cfg, r) would, without allocating one.
func (m *MLP) Reinit(init Initializer, r *rng.RNG) {
	for _, l := range m.Layers {
		init(l.W.Data, l.In, l.Out, r)
		clear(l.B.Data)
	}
	m.ZeroGrad()
}

// Forward runs the batch x through every layer and returns the output.
func (m *MLP) Forward(x *mat.Matrix) *mat.Matrix {
	out := x
	for _, l := range m.Layers {
		out = l.Forward(out)
	}
	return out
}

// Backward propagates dL/d(output) through every layer, accumulating
// parameter gradients, and returns dL/d(input).
func (m *MLP) Backward(grad *mat.Matrix) *mat.Matrix {
	g := grad
	for i := len(m.Layers) - 1; i >= 0; i-- {
		g = m.Layers[i].Backward(g)
	}
	return g
}

// BackwardParams is Backward for training loops that never read
// dL/d(input): it accumulates exactly the parameter gradients Backward
// does, bit for bit, but the first layer skips its grad·Wᵀ product.
// It returns nothing, since no input gradient is formed.
func (m *MLP) BackwardParams(grad *mat.Matrix) {
	g := grad
	for i := len(m.Layers) - 1; i > 0; i-- {
		g = m.Layers[i].Backward(g)
	}
	m.Layers[0].accumulateGrads(g)
}

// AddGrads adds src's parameter gradients into m's, one add per
// element (g_m += g_src). src must share m's topology, as a
// TrainReplica does.
func (m *MLP) AddGrads(src *MLP) {
	m.requireGrads("AddGrads")
	src.requireGrads("AddGrads")
	sp := src.Params()
	for i, p := range m.Params() {
		mat.Axpy(1, sp[i].Grad, p.Grad)
	}
}

// Params returns all trainable parameters in layer order. The slice is
// built once and cached (topology never changes after construction);
// it is sized to exact capacity, so callers appending to it get their
// own backing array. Callers must not mutate the returned slice.
func (m *MLP) Params() []*Param {
	if m.params == nil {
		ps := make([]*Param, 0, 2*len(m.Layers))
		for _, l := range m.Layers {
			ps = append(ps, l.W, l.B)
		}
		m.params = ps
	}
	return m.params
}

// requireGrads panics when m is inference-only.
func (m *MLP) requireGrads(op string) {
	for _, l := range m.Layers {
		l.requireGrads(op)
	}
}

// ZeroGrad clears every parameter gradient (none on an inference-only
// network).
func (m *MLP) ZeroGrad() {
	for _, p := range m.Params() {
		p.ZeroGrad()
	}
}

// ShareParams returns an inference replica of m: a new MLP whose
// layers reference the receiver's *Param tensors (no weights are
// copied) but own fresh workspace buffers. Concurrent Forward calls on
// distinct replicas of one network are therefore safe, and — because
// the parameter data is byte-for-byte shared and every kernel is
// deterministic — produce bitwise-identical outputs to the original.
//
// The replica is for inference. Backward on a replica accumulates into
// the SHARED gradient buffers, so concurrent Backward (or training the
// original while replicas are live) is a data race. Replicas are
// cheap: per layer they allocate only the layer header; the
// workspaces grow lazily on first Forward.
func (m *MLP) ShareParams() *MLP { return m.replica(false) }

// TrainReplica returns a training replica of m: its layers read the
// receiver's parameter values (Param.Data is shared, not copied) but
// own their gradient buffers and workspaces. Forward and Backward on
// distinct replicas may run concurrently, each accumulating only into
// its own gradients, as long as nothing writes the shared values
// meanwhile; the owner then folds them in with AddGrads and steps its
// optimizer on its own Params. A replica allocates one gradient buffer
// per parameter up front; workspaces grow lazily on first Forward.
func (m *MLP) TrainReplica() *MLP {
	m.requireGrads("TrainReplica")
	return m.replica(true)
}

// replica builds a layer-for-layer copy of m over m's parameter values,
// with gradient buffers of its own when ownGrads is set.
func (m *MLP) replica(ownGrads bool) *MLP {
	r := &MLP{Layers: make([]*Dense, len(m.Layers))}
	for i, t := range m.Layers {
		w, b := t.W, t.B
		if ownGrads {
			w = &Param{Name: w.Name, Data: w.Data, Grad: make([]float64, len(w.Grad))}
			b = &Param{Name: b.Name, Data: b.Data, Grad: make([]float64, len(b.Grad))}
		}
		r.Layers[i] = newDenseOver(t.In, t.Out, t.Act, w, b)
	}
	return r
}
