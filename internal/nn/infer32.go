package nn

import (
	"fmt"
	"math"

	"targad/internal/mat"
)

// Float32 inference replicas. Training and checkpoints stay float64;
// serving can run batches through a one-time float32 copy of the
// parameters using the f32 GEMM (mat.Mul32 and, on capable amd64
// hardware, its AVX2/FMA kernels). Nothing here is bitwise-pinned —
// outputs are tolerance-bounded against the float64 forward pass (see
// DESIGN.md "Numerical precision model").

// ConvertError reports a parameter value that cannot be narrowed to
// float32 safely: NaN, ±Inf, or a finite float64 whose magnitude
// overflows the float32 range. Serving such a value would silently turn
// scores into Inf/NaN, so conversion refuses instead.
type ConvertError struct {
	Param  string  // parameter name, e.g. "dense196x64.W"
	Index  int     // flat index within the parameter tensor
	Value  float64 // the offending value
	Reason string  // "non-finite" or "overflows float32"
}

func (e *ConvertError) Error() string {
	return fmt.Sprintf("nn: convert %s[%d] = %g to float32: %s", e.Param, e.Index, e.Value, e.Reason)
}

// dense32 is one fused dense+activation stage of a float32 network:
// y = act(x·W + b).
type dense32 struct {
	w   mat.Matrix32 // In×Out, row-major, owned by the Params32
	b   []float32
	act Activation
}

// Params32 holds a float32 copy of an MLP's parameters, shared by any
// number of Inference32 replicas. It is immutable once MLP.Params32
// returns it (replicas only read), so concurrent Forward calls on
// replicas backed by one Params32 are safe.
type Params32 struct {
	in     int // input width, for shape checks
	layers []dense32
}

// Params32 converts m's parameters into a freshly allocated float32
// set. Every value is checked before narrowing; the first NaN, ±Inf,
// or float32-overflowing value aborts with a *ConvertError.
func (m *MLP) Params32() (*Params32, error) {
	p := &Params32{layers: make([]dense32, len(m.Layers))}
	for i, d := range m.Layers {
		st := &p.layers[i]
		st.act = d.Act
		st.w = *mat.New32(d.In, d.Out)
		if err := narrowInto(st.w.Data, d.W.Data, d.W.Name); err != nil {
			return nil, err
		}
		st.b = make([]float32, d.Out)
		if err := narrowInto(st.b, d.B.Data, d.B.Name); err != nil {
			return nil, err
		}
	}
	if len(p.layers) > 0 {
		p.in = p.layers[0].w.Rows
	}
	return p, nil
}

// narrowInto converts src to float32 into dst (same length), rejecting
// values a float32 cannot represent finitely.
func narrowInto(dst []float32, src []float64, name string) error {
	for i, v := range src {
		if !Finite(v) {
			return &ConvertError{Param: name, Index: i, Value: v, Reason: "non-finite"}
		}
		f := float32(v)
		if math.IsInf(float64(f), 0) {
			return &ConvertError{Param: name, Index: i, Value: v, Reason: "overflows float32"}
		}
		dst[i] = f
	}
	return nil
}

// Inference32 is a float32 forward-pass replica over a shared Params32.
// Like MLP replicas, each Inference32 owns its workspaces — concurrent
// Forward calls on distinct replicas are safe — and Forward returns a
// replica-owned matrix valid until the next Forward on the same
// replica.
type Inference32 struct {
	p  *Params32
	ws []*mat.Matrix32 // one output workspace per dense stage
}

// NewInference32 returns a replica over p. Workspaces grow lazily on
// first Forward.
func NewInference32(p *Params32) *Inference32 {
	return &Inference32{p: p, ws: make([]*mat.Matrix32, len(p.layers))}
}

// Forward runs the batch x through every stage and returns the output
// (replica-owned workspace). It panics on a feature-width mismatch,
// matching MLP.Forward's contract.
func (inf *Inference32) Forward(x *mat.Matrix32) *mat.Matrix32 {
	if len(inf.p.layers) == 0 {
		panic("nn: float32 forward on empty network")
	}
	if x.Cols != inf.p.in {
		panic(fmt.Sprintf("nn: float32 forward with %d features, want %d", x.Cols, inf.p.in))
	}
	cur := x
	for i := range inf.p.layers {
		st := &inf.p.layers[i]
		out := mat.Ensure32(inf.ws[i], cur.Rows, st.w.Cols)
		inf.ws[i] = out
		if _, err := mat.Mul32(out, cur, &st.w); err != nil {
			panic(err)
		}
		addBiasAct32(out, st.b, st.act)
		cur = out
	}
	return cur
}

// addBiasAct32 is addBiasAct in float32: it adds the bias row vector
// and applies the activation in one pass over the matrix. Sigmoid and
// tanh evaluate in float64 (their cost is negligible next to the GEMM);
// the piecewise-linear activations stay in float32.
func addBiasAct32(m *mat.Matrix32, bias []float32, act Activation) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("nn: bias len %d on %d columns", len(bias), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		switch act {
		case ReLU:
			for j, bv := range bias {
				// Branchless ReLU: an arithmetic shift of the sign bit
				// yields an all-ones mask exactly for negative values
				// (including -0), which AND-NOT clears to +0. Post-GEMM
				// data is an even mix of signs, so the branchy form
				// pays a misprediction per element.
				b := math.Float32bits(row[j] + bv)
				row[j] = math.Float32frombits(b &^ uint32(int32(b)>>31))
			}
		case LeakyReLU:
			for j, bv := range bias {
				if v := row[j] + bv; v < 0 {
					row[j] = leakySlope * v
				} else {
					row[j] = v
				}
			}
		case Sigmoid:
			for j, bv := range bias {
				v := row[j] + bv
				row[j] = float32(1 / (1 + math.Exp(-float64(v))))
			}
		case Tanh:
			for j, bv := range bias {
				v := row[j] + bv
				row[j] = float32(math.Tanh(float64(v)))
			}
		default:
			for j, bv := range bias {
				row[j] += bv
			}
		}
	}
}
