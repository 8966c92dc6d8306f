package nn

import (
	"fmt"
	"math"
)

// Adam implements the Adaptive Moment Estimation optimizer
// (Kingma & Ba, 2015), the optimizer the paper uses for both the
// autoencoders and the classifier.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Epsilon float64

	t int
	m map[*Param][]float64
	v map[*Param][]float64
}

// NewAdam returns an Adam optimizer with the standard β₁=0.9,
// β₂=0.999, ε=1e-8 defaults and the given learning rate.
func NewAdam(lr float64) *Adam {
	return &Adam{
		LR:      lr,
		Beta1:   0.9,
		Beta2:   0.999,
		Epsilon: 1e-8,
		m:       make(map[*Param][]float64),
		v:       make(map[*Param][]float64),
	}
}

// Reset returns a to the state NewAdam(lr) builds: step count zero
// and every moment zero. The moment buffers are kept, so an optimizer
// reused over the same parameters allocates nothing.
func (a *Adam) Reset(lr float64) {
	a.LR = lr
	a.t = 0
	for _, m := range a.m {
		clear(m)
	}
	for _, v := range a.v {
		clear(v)
	}
}

// Step applies one update to every parameter and leaves gradients
// untouched (callers ZeroGrad between batches).
func (a *Adam) Step(params []*Param) {
	a.t++
	bc1 := 1 - math.Pow(a.Beta1, float64(a.t))
	bc2 := 1 - math.Pow(a.Beta2, float64(a.t))
	for _, p := range params {
		m, ok := a.m[p]
		if !ok {
			m = make([]float64, len(p.Data))
			a.m[p] = m
		}
		v, ok := a.v[p]
		if !ok {
			v = make([]float64, len(p.Data))
			a.v[p] = v
		}
		for i, g := range p.Grad {
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			v[i] = a.Beta2*v[i] + (1-a.Beta2)*g*g
			mhat := m[i] / bc1
			vhat := v[i] / bc2
			p.Data[i] -= a.LR * mhat / (math.Sqrt(vhat) + a.Epsilon)
		}
	}
}

// AdamState is a serializable snapshot of an Adam optimizer's mutable
// state (step count and first/second moments), captured in params
// order. It is the optimizer half of a training checkpoint: restoring
// it into a fresh Adam with the same parameters resumes optimization
// bitwise-identically.
type AdamState struct {
	T    int
	M, V [][]float64
}

// Snapshot deep-copies the optimizer's state for params, in order.
// Parameters the optimizer has not yet seen get zero moments, exactly
// as a fresh Step would initialize them.
func (a *Adam) Snapshot(params []*Param) AdamState {
	st := AdamState{T: a.t, M: make([][]float64, len(params)), V: make([][]float64, len(params))}
	for i, p := range params {
		st.M[i] = make([]float64, len(p.Data))
		st.V[i] = make([]float64, len(p.Data))
		if m, ok := a.m[p]; ok {
			copy(st.M[i], m)
		}
		if v, ok := a.v[p]; ok {
			copy(st.V[i], v)
		}
	}
	return st
}

// Restore loads a Snapshot taken for an identically shaped params
// slice. It errors on any shape mismatch instead of silently resuming
// from torn state.
func (a *Adam) Restore(params []*Param, st AdamState) error {
	if len(st.M) != len(params) || len(st.V) != len(params) {
		return fmt.Errorf("nn: adam restore: %d moment tensors, have %d params", len(st.M), len(params))
	}
	for i, p := range params {
		if len(st.M[i]) != len(p.Data) || len(st.V[i]) != len(p.Data) {
			return fmt.Errorf("nn: adam restore: param %d has %d values, snapshot %d", i, len(p.Data), len(st.M[i]))
		}
	}
	a.t = st.T
	a.m = make(map[*Param][]float64, len(params))
	a.v = make(map[*Param][]float64, len(params))
	for i, p := range params {
		m := make([]float64, len(p.Data))
		copy(m, st.M[i])
		a.m[p] = m
		v := make([]float64, len(p.Data))
		copy(v, st.V[i])
		a.v[p] = v
	}
	return nil
}

// ClipGrads rescales every gradient so the global L2 norm does not
// exceed maxNorm; it returns the pre-clip norm. Used by the GAN and RL
// baselines whose training is otherwise unstable at small batch sizes.
func ClipGrads(params []*Param, maxNorm float64) float64 {
	var sq float64
	for _, p := range params {
		for _, g := range p.Grad {
			sq += g * g
		}
	}
	norm := math.Sqrt(sq)
	if norm > maxNorm && norm > 0 {
		scale := maxNorm / norm
		for _, p := range params {
			for i := range p.Grad {
				p.Grad[i] *= scale
			}
		}
	}
	return norm
}
