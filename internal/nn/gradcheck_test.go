package nn

import (
	"math"
	"testing"

	"targad/internal/mat"
	"targad/internal/rng"
)

// numericalGrad estimates d(loss)/d(param[i]) by central differences.
func numericalGrad(loss func() float64, p *Param, i int) float64 {
	const h = 1e-5
	orig := p.Data[i]
	p.Data[i] = orig + h
	lp := loss()
	p.Data[i] = orig - h
	lm := loss()
	p.Data[i] = orig
	return (lp - lm) / (2 * h)
}

// checkGrads verifies every analytic parameter gradient of net against
// central differences of the scalar loss.
func checkGrads(t *testing.T, net *MLP, x *mat.Matrix, lossAndGrad func(out *mat.Matrix) (float64, *mat.Matrix)) {
	t.Helper()
	lossOnly := func() float64 {
		out := net.Forward(x)
		l, _ := lossAndGrad(out)
		return l
	}
	net.ZeroGrad()
	out := net.Forward(x)
	_, grad := lossAndGrad(out)
	net.Backward(grad)
	for _, p := range net.Params() {
		for i := range p.Data {
			want := numericalGrad(lossOnly, p, i)
			got := p.Grad[i]
			tol := 1e-4 * math.Max(1, math.Abs(want))
			if math.Abs(got-want) > tol {
				t.Fatalf("param %s[%d]: analytic %g vs numeric %g", p.Name, i, got, want)
			}
		}
	}
}

func smallInput(r *rng.RNG, rows, cols int) *mat.Matrix {
	x := mat.New(rows, cols)
	r.FillUniform(x.Data, 0.05, 0.95)
	return x
}

func TestGradMSEThroughSigmoidMLP(t *testing.T) {
	r := rng.New(1)
	net, err := NewMLP(MLPConfig{Dims: []int{4, 5, 3}, Hidden: Tanh, Output: Sigmoid, Init: XavierUniform}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := smallInput(r, 3, 4)
	target := smallInput(r, 3, 3)
	checkGrads(t, net, x, func(out *mat.Matrix) (float64, *mat.Matrix) {
		return MSE(out, target)
	})
}

func TestGradSoftCrossEntropy(t *testing.T) {
	r := rng.New(2)
	net, err := NewMLP(MLPConfig{Dims: []int{3, 6, 4}, Hidden: Tanh, Output: Identity, Init: XavierUniform}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := smallInput(r, 4, 3)
	// Soft labels: mix of one-hot and uniform-over-prefix rows, the
	// exact shapes TargAD uses.
	y := mat.New(4, 4)
	y.Set(0, 1, 1)
	y.Set(1, 3, 1)
	for j := 0; j < 2; j++ {
		y.Set(2, j, 0.5)
	}
	for j := 0; j < 4; j++ {
		y.Set(3, j, 0.25)
	}
	checkGrads(t, net, x, func(out *mat.Matrix) (float64, *mat.Matrix) {
		return SoftCrossEntropy(out, y, nil)
	})
}

func TestGradSoftCrossEntropyWeighted(t *testing.T) {
	r := rng.New(3)
	net, err := NewMLP(MLPConfig{Dims: []int{3, 4}, Hidden: Tanh, Output: Identity, Init: XavierUniform}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := smallInput(r, 3, 3)
	y := mat.New(3, 4)
	for i := 0; i < 3; i++ {
		for j := 0; j < 2; j++ {
			y.Set(i, j, 0.5)
		}
	}
	w := []float64{0.2, 1, 0}
	checkGrads(t, net, x, func(out *mat.Matrix) (float64, *mat.Matrix) {
		return SoftCrossEntropy(out, y, w)
	})
}

func TestGradEntropy(t *testing.T) {
	r := rng.New(4)
	net, err := NewMLP(MLPConfig{Dims: []int{3, 5, 4}, Hidden: Sigmoid, Output: Identity, Init: XavierUniform}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := smallInput(r, 3, 3)
	checkGrads(t, net, x, func(out *mat.Matrix) (float64, *mat.Matrix) {
		return EntropyInto(nil, out)
	})
}

func TestGradLeakyReLUPath(t *testing.T) {
	r := rng.New(5)
	net, err := NewMLP(MLPConfig{Dims: []int{4, 6, 2}, Hidden: LeakyReLU, Output: Identity, Init: XavierUniform}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Inputs centered at 0 exercise both branches of the kink; offset
	// slightly so no pre-activation sits exactly at the kink.
	x := mat.New(3, 4)
	r.FillUniform(x.Data, -1, 1)
	target := mat.New(3, 2)
	r.FillUniform(target.Data, -1, 1)
	checkGrads(t, net, x, func(out *mat.Matrix) (float64, *mat.Matrix) {
		return MSE(out, target)
	})
}

func TestGradBCEWithLogits(t *testing.T) {
	logits := []float64{-2, -0.5, 0, 0.7, 3}
	targets := []float64{0, 1, 0, 1, 1}
	_, grad := BCEWithLogits(logits, targets)
	for i := range logits {
		const h = 1e-6
		up := append([]float64(nil), logits...)
		up[i] += h
		lu, _ := BCEWithLogits(up, targets)
		dn := append([]float64(nil), logits...)
		dn[i] -= h
		ld, _ := BCEWithLogits(dn, targets)
		want := (lu - ld) / (2 * h)
		if math.Abs(grad[i]-want) > 1e-5 {
			t.Fatalf("BCE grad[%d] = %g, numeric %g", i, grad[i], want)
		}
	}
}
