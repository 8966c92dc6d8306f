package nn

import (
	"math"
	"testing"

	"targad/internal/mat"
	"targad/internal/rng"
)

// refAct is the element loop of the standalone activation layer the
// fused Dense stage replaced: it reads the pre-activation z and writes
// a separate output buffer.
func refAct(act Activation, z []float64) []float64 {
	out := make([]float64, len(z))
	for i, v := range z {
		switch act {
		case ReLU:
			if v > 0 {
				out[i] = v
			} else {
				out[i] = 0
			}
		case LeakyReLU:
			if v > 0 {
				out[i] = v
			} else {
				out[i] = leakySlope * v
			}
		case Sigmoid:
			out[i] = 1 / (1 + math.Exp(-v))
		case Tanh:
			out[i] = math.Tanh(v)
		case Identity:
			out[i] = v
		}
	}
	return out
}

// refActGrad is that layer's backward: the derivative of ReLU and
// LeakyReLU is read from the pre-activation z, that of Sigmoid and
// Tanh from the output. It returns a new gradient slice.
func refActGrad(act Activation, z, out, grad []float64) []float64 {
	g := append([]float64(nil), grad...)
	for i, v := range g {
		switch act {
		case ReLU:
			if z[i] <= 0 {
				g[i] = 0
			}
		case LeakyReLU:
			if z[i] <= 0 {
				g[i] *= leakySlope
			}
		case Sigmoid:
			s := out[i]
			g[i] = v * s * (1 - s)
		case Tanh:
			t := out[i]
			g[i] = v * (1 - t*t)
		}
	}
	return g
}

// unfusedForward is the two-stage reference a Dense stage must match
// bit for bit: the GEMM, a separate bias add, then refAct. It returns
// the pre-activation z as well, which the reference backward reads.
func unfusedForward(d *Dense, x *mat.Matrix) (z *mat.Matrix, out []float64) {
	z, err := mat.Mul(nil, x, &mat.Matrix{Rows: d.In, Cols: d.Out, Data: d.W.Data})
	if err != nil {
		panic(err)
	}
	for i := 0; i < z.Rows; i++ {
		row := z.Row(i)
		for j, b := range d.B.Data {
			row[j] += b
		}
	}
	return z, refAct(d.Act, z.Data)
}

// unfusedBackward is the matching reference backward: refActGrad, then
// the parameter and input gradients formed from its result. It returns
// dL/dx, dL/dW and dL/db as a fresh Dense holds them after one
// Backward.
func unfusedBackward(d *Dense, x, z *mat.Matrix, out []float64, grad *mat.Matrix) (gin, gw, gb []float64) {
	g := &mat.Matrix{Rows: grad.Rows, Cols: grad.Cols, Data: refActGrad(d.Act, z.Data, out, grad.Data)}
	gwm := mat.New(d.In, d.Out)
	if _, err := mat.MulATBAcc(gwm, x, g); err != nil {
		panic(err)
	}
	gb = make([]float64, d.Out)
	mat.Axpy(1, mat.ColSumsInto(nil, g), gb)
	ginm, err := mat.MulABT(nil, g, &mat.Matrix{Rows: d.In, Cols: d.Out, Data: d.W.Data})
	if err != nil {
		panic(err)
	}
	return ginm.Data, gwm.Data, gb
}

var testActivations = []Activation{ReLU, LeakyReLU, Sigmoid, Tanh, Identity}

// TestDenseFusedMatchesUnfused pins the fused stage to the two-stage
// reference for every activation, comparing bit patterns, so the sign
// of every zero and every infinity must match too. The "specials" case
// feeds a one-wide input through chosen weights and biases so the
// pre-activations hit zero products meeting ±0 biases, tiny
// (subnormal) negatives, ±Inf and magnitudes near overflow; the
// "random" case is wide enough to reach the blocked GEMM kernels. The
// GEMM accumulates from +0, so no pre-activation reaching the
// activation through Forward is -0; TestAddBiasActMatchesUnfused
// covers that input on the fused pass itself.
func TestDenseFusedMatchesUnfused(t *testing.T) {
	negZero := math.Copysign(0, -1)
	specials := []float64{
		0, negZero, 1, -1, 2.5, -2.5, 5e-324, -5e-324, -1e-310, 1e-300,
		math.Inf(1), math.Inf(-1), 1e308, -1e308, 0.5, -0.5,
	}
	type tc struct {
		name string
		in   int
		x    func(r *rng.RNG) *mat.Matrix
		wb   func(d *Dense, r *rng.RNG)
	}
	cases := []tc{
		{
			name: "specials",
			in:   1,
			x: func(*rng.RNG) *mat.Matrix {
				x := mat.New(len(specials), 1)
				copy(x.Data, specials)
				return x
			},
			wb: func(d *Dense, _ *rng.RNG) {
				copy(d.W.Data, []float64{1, -1, 2, 0.5, 1e200, -3e-200, 1, -1})
				copy(d.B.Data, []float64{0, negZero, 1, -1, 1e300, -2.5, negZero, 1e-320})
			},
		},
		{
			name: "random",
			in:   40,
			x: func(r *rng.RNG) *mat.Matrix {
				x := mat.New(33, 40)
				r.FillNormal(x.Data, 0, 1)
				for i := 0; i < x.Rows; i++ {
					x.Set(i, 0, negZero)
				}
				return x
			},
			wb: func(d *Dense, r *rng.RNG) {
				r.FillNormal(d.B.Data, 0, 1)
				d.B.Data[0] = negZero
			},
		},
	}
	for _, c := range cases {
		for _, act := range testActivations {
			r := rng.New(5)
			d := NewDense(c.in, 8, act, HeNormal, r)
			c.wb(d, r)
			x := c.x(r)
			grad := mat.New(x.Rows, d.Out)
			r.FillNormal(grad.Data, 0, 1)
			for i := 0; i < grad.Rows; i++ {
				grad.Set(i, 1, negZero)
				grad.Set(i, 2, 0)
			}

			z, wantOut := unfusedForward(d, x)
			wantGin, wantGW, wantGB := unfusedBackward(d, x, z, wantOut, grad)

			out := d.Forward(x)
			assertBits(t, c.name+"/"+act.String()+" forward", out.Data, wantOut)
			gin := d.Backward(grad.Clone())
			assertBits(t, c.name+"/"+act.String()+" dL/dx", gin.Data, wantGin)
			assertBits(t, c.name+"/"+act.String()+" dL/dW", d.W.Grad, wantGW)
			assertBits(t, c.name+"/"+act.String()+" dL/db", d.B.Grad, wantGB)
		}
	}
}

func assertBits(t *testing.T, what string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d values, want %d", what, len(got), len(want))
	}
	for i := range got {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s[%d] = %v (%#x), want %v (%#x)", what, i,
				got[i], math.Float64bits(got[i]), want[i], math.Float64bits(want[i]))
		}
	}
}

// TestAddBiasActMatchesUnfused pins the fused bias-and-activation pass
// and the in-place derivative on every input class directly, including
// the ones a GEMM never produces: a -0 entry meeting a -0 bias (a -0
// pre-activation) and NaN. Row i holds vals[i] in every column, and
// column j adds biases[j]. NaN pre-activations are left out of the
// ReLU backward comparison: the fused derivative reads the output,
// where ReLU has mapped NaN to +0, and the reference read the NaN.
func TestAddBiasActMatchesUnfused(t *testing.T) {
	negZero := math.Copysign(0, -1)
	vals := []float64{
		0, negZero, 1, -1, 5e-324, -5e-324, -1e-310, 1e308, -1e308,
		math.Inf(1), math.Inf(-1), math.NaN(), 0.75, -40,
	}
	biases := []float64{0, negZero, 1, -1, -5e-324, 1e308, math.Inf(-1)}
	for _, act := range testActivations {
		m := mat.New(len(vals), len(biases))
		z := make([]float64, len(m.Data))
		for i, v := range vals {
			for j, b := range biases {
				m.Set(i, j, v)
				z[i*len(biases)+j] = v + b
			}
		}
		want := refAct(act, z)
		addBiasAct(m, biases, act)
		assertBits(t, act.String()+" forward", m.Data, want)

		grad := make([]float64, len(z))
		rng.New(3).FillNormal(grad, 0, 1)
		wantGrad := refActGrad(act, z, want, grad)
		actGrad(act, grad, m.Data)
		for i, v := range z {
			if math.IsNaN(v) && act == ReLU {
				grad[i], wantGrad[i] = 0, 0
			}
		}
		assertBits(t, act.String()+" backward", grad, wantGrad)
	}
}
