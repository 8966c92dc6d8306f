package nn

import (
	"math"
	"testing"
	"testing/quick"

	"targad/internal/mat"
	"targad/internal/rng"
)

func TestMLPConfigValidation(t *testing.T) {
	r := rng.New(1)
	if _, err := NewMLP(MLPConfig{Dims: []int{3}}, r); err == nil {
		t.Fatal("single-dim MLP must error")
	}
	if _, err := NewMLP(MLPConfig{Dims: []int{3, 0, 2}}, r); err == nil {
		t.Fatal("zero width must error")
	}
}

func TestMLPShapesAndParamCount(t *testing.T) {
	r := rng.New(2)
	net, err := NewMLP(MLPConfig{Dims: []int{5, 7, 3}, Hidden: ReLU, Output: Identity}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(4, 5)
	out := net.Forward(x)
	if out.Rows != 4 || out.Cols != 3 {
		t.Fatalf("Forward output %dx%d, want 4x3", out.Rows, out.Cols)
	}
	want := 5*7 + 7 + 7*3 + 3
	var got int
	for _, p := range net.Params() {
		got += len(p.Data)
	}
	if got != want {
		t.Fatalf("parameter count = %d, want %d", got, want)
	}
}

func TestAdamLearnsLinearMap(t *testing.T) {
	r := rng.New(3)
	smallNormal := func(w []float64, _, _ int, r *rng.RNG) { r.FillNormal(w, 0, 0.01) }
	net, err := NewMLP(MLPConfig{Dims: []int{2, 1}, Hidden: ReLU, Output: Identity, Init: smallNormal}, r)
	if err != nil {
		t.Fatal(err)
	}
	// Target function y = 2a − b.
	x := mat.New(64, 2)
	y := mat.New(64, 1)
	r.FillUniform(x.Data, -1, 1)
	for i := 0; i < 64; i++ {
		y.Set(i, 0, 2*x.At(i, 0)-x.At(i, 1))
	}
	opt := NewAdam(0.05)
	var loss float64
	for it := 0; it < 400; it++ {
		net.ZeroGrad()
		out := net.Forward(x)
		var grad *mat.Matrix
		loss, grad = MSE(out, y)
		net.Backward(grad)
		opt.Step(net.Params())
	}
	if loss > 1e-3 {
		t.Fatalf("Adam failed to fit linear map, final loss %g", loss)
	}
}

func TestClipGrads(t *testing.T) {
	p := &Param{Data: make([]float64, 2), Grad: []float64{3, 4}}
	norm := ClipGrads([]*Param{p}, 1)
	if math.Abs(norm-5) > 1e-12 {
		t.Fatalf("pre-clip norm = %v, want 5", norm)
	}
	if got := math.Hypot(p.Grad[0], p.Grad[1]); math.Abs(got-1) > 1e-12 {
		t.Fatalf("post-clip norm = %v, want 1", got)
	}
	// Below threshold: untouched.
	p2 := &Param{Data: make([]float64, 1), Grad: []float64{0.5}}
	ClipGrads([]*Param{p2}, 1)
	if p2.Grad[0] != 0.5 {
		t.Fatal("grad below max norm must not change")
	}
}

func TestBatcherCoversAllIndices(t *testing.T) {
	b := NewBatcher(10, 3, rng.New(5))
	seen := map[int]int{}
	for i := 0; i < b.BatchesPerEpoch(); i++ {
		for _, idx := range b.Next() {
			seen[idx]++
		}
	}
	if len(seen) != 10 {
		t.Fatalf("one epoch covered %d/10 indices", len(seen))
	}
	for idx, c := range seen {
		if c != 1 {
			t.Fatalf("index %d seen %d times in one epoch", idx, c)
		}
	}
}

func TestBatcherEdgeCases(t *testing.T) {
	if b := NewBatcher(0, 4, rng.New(6)); b.Next() != nil || b.BatchesPerEpoch() != 0 {
		t.Fatal("empty batcher must yield nil")
	}
	b := NewBatcher(3, 100, rng.New(7))
	if b.BatchSize != 3 {
		t.Fatalf("batch size must clamp to n, got %d", b.BatchSize)
	}
	if got := len(b.Next()); got != 3 {
		t.Fatalf("clamped batch len = %d", got)
	}
	b2 := NewBatcher(5, 0, rng.New(8))
	if b2.BatchSize != 1 {
		t.Fatalf("batch size must clamp to >=1, got %d", b2.BatchSize)
	}
}

func TestGatherAndGatherVec(t *testing.T) {
	src, _ := mat.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	g := Gather(src, []int{2, 0})
	if g.At(0, 0) != 5 || g.At(1, 1) != 2 {
		t.Fatalf("Gather = %v", g.Data)
	}
	v := GatherVec([]float64{10, 20, 30}, []int{1, 1, 0})
	if v[0] != 20 || v[2] != 10 {
		t.Fatalf("GatherVec = %v", v)
	}
}

func TestSoftmaxRowsSumToOne(t *testing.T) {
	f := func(raw [6]float64) bool {
		logits := mat.New(2, 3)
		for i, v := range raw {
			logits.Data[i] = math.Mod(v, 30)
			if math.IsNaN(logits.Data[i]) {
				logits.Data[i] = 0
			}
		}
		probs := SoftmaxRows(logits)
		for i := 0; i < 2; i++ {
			var s float64
			for _, p := range probs.Row(i) {
				s += p
			}
			if math.Abs(s-1) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCrossEntropyGradRowsSumToZero(t *testing.T) {
	// With labels summing to 1 per row, the softmax-CE gradient of
	// each row must sum to zero (probability mass is conserved).
	f := func(seed int64) bool {
		r := rng.New(seed)
		logits := mat.New(4, 5)
		r.FillNormal(logits.Data, 0, 3)
		y := mat.New(4, 5)
		for i := 0; i < 4; i++ {
			// Random soft label normalized to 1.
			row := y.Row(i)
			var s float64
			for j := range row {
				row[j] = r.Float64()
				s += row[j]
			}
			for j := range row {
				row[j] /= s
			}
		}
		_, grad := SoftCrossEntropy(logits, y, nil)
		for i := 0; i < 4; i++ {
			var s float64
			for _, g := range grad.Row(i) {
				s += g
			}
			if math.Abs(s) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestEntropyGradZeroAtUniform(t *testing.T) {
	// Entropy is maximal at the uniform distribution, so its gradient
	// with respect to the logits vanishes for constant logit rows.
	logits := mat.New(1, 4)
	for j := 0; j < 4; j++ {
		logits.Set(0, j, 2.5)
	}
	_, grad := EntropyInto(nil, logits)
	for _, g := range grad.Data {
		if math.Abs(g) > 1e-9 {
			t.Fatalf("entropy gradient at uniform = %v, want 0", g)
		}
	}
}

func TestActivationStrings(t *testing.T) {
	cases := map[Activation]string{
		ReLU: "relu", LeakyReLU: "leaky_relu", Sigmoid: "sigmoid",
		Tanh: "tanh", Identity: "identity", Activation(99): "unknown",
	}
	for a, want := range cases {
		if a.String() != want {
			t.Fatalf("%d.String() = %q, want %q", a, a.String(), want)
		}
	}
}

func TestDenseInputDimPanic(t *testing.T) {
	r := rng.New(11)
	d := NewDense(3, 2, Identity, HeNormal, r)
	defer func() {
		if recover() == nil {
			t.Fatal("forward with wrong width must panic")
		}
	}()
	d.Forward(mat.New(1, 4))
}
