package nn

import (
	"math"
	"strings"
	"testing"

	"targad/internal/mat"
)

// inferenceTestNet returns a trainable network and an inference-only
// network built over copies of its parameter values.
func inferenceTestNet(t *testing.T) (trained, inf *MLP, values [][]float64) {
	t.Helper()
	trained = shareTestNet(t)
	for _, p := range trained.Params() {
		values = append(values, append([]float64(nil), p.Data...))
	}
	inf, err := NewInferenceMLP(MLPConfig{Dims: []int{12, 8, 5}, Hidden: ReLU, Output: Identity}, values)
	if err != nil {
		t.Fatal(err)
	}
	return trained, inf, values
}

func TestInferenceMLPForwardsOverItsTensors(t *testing.T) {
	trained, inf, values := inferenceTestNet(t)
	x := shareTestBatch(9, 12, 11)
	want := trained.Forward(x).Clone()
	for name, net := range map[string]*MLP{"network": inf, "replica": inf.ShareParams()} {
		got := net.Forward(x)
		for i := range want.Data {
			if got.Data[i] != want.Data[i] {
				t.Fatalf("%s output differs at %d: %v vs %v", name, i, got.Data[i], want.Data[i])
			}
		}
	}
	ps := inf.Params()
	if len(ps) != len(values) {
		t.Fatalf("%d params, want %d", len(ps), len(values))
	}
	for i, p := range ps {
		if p.Grad != nil {
			t.Fatalf("param %d has %d gradient values, want none", i, len(p.Grad))
		}
		if len(p.Data) != len(values[i]) || &p.Data[0] != &values[i][0] {
			t.Fatalf("param %d does not read the given tensor in place", i)
		}
		if want := trained.Params()[i].Name; p.Name != want {
			t.Fatalf("param %d named %q, want %q", i, p.Name, want)
		}
	}
	inf.ZeroGrad() // a no-op, not a panic
}

func TestInferenceMLPRefusesToTrain(t *testing.T) {
	trained, inf, _ := inferenceTestNet(t)
	x := shareTestBatch(4, 12, 5)
	grad := func() *mat.Matrix { return shareTestBatch(4, 5, 6) }
	for _, tc := range []struct {
		name string
		op   func()
	}{
		{"Backward", func() { inf.Forward(x); inf.Backward(grad()) }},
		{"BackwardParams", func() { inf.Forward(x); inf.BackwardParams(grad()) }},
		{"AddGrads into", func() { inf.AddGrads(trained) }},
		{"AddGrads from", func() { trained.AddGrads(inf) }},
		{"TrainReplica", func() { inf.TrainReplica() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, ok := recover().(string)
				if !ok || !strings.Contains(msg, "inference-only") {
					t.Fatalf("panic %q, want a message naming the network inference-only", msg)
				}
			}()
			tc.op()
		})
	}
}

func TestNewInferenceMLPChecksShapes(t *testing.T) {
	cfg := MLPConfig{Dims: []int{2, 3, 1}, Hidden: ReLU, Output: Identity}
	ok := [][]float64{make([]float64, 6), make([]float64, 3), make([]float64, 3), make([]float64, 1)}
	if _, err := NewInferenceMLP(cfg, ok); err != nil {
		t.Fatalf("well-shaped tensors: %v", err)
	}
	for name, tc := range map[string]struct {
		dims   []int
		params [][]float64
	}{
		"tensor count":   {[]int{2, 3, 1}, ok[:3]},
		"weight size":    {[]int{2, 3, 1}, [][]float64{make([]float64, 5), ok[1], ok[2], ok[3]}},
		"bias size":      {[]int{2, 3, 1}, [][]float64{ok[0], make([]float64, 2), ok[2], ok[3]}},
		"zero width":     {[]int{2, 0, 1}, ok},
		"one width":      {[]int{2}, nil},
		"overflow width": {[]int{math.MaxInt/2 + 1, 3}, [][]float64{{1}, make([]float64, 3)}},
	} {
		if _, err := NewInferenceMLP(MLPConfig{Dims: tc.dims, Hidden: ReLU, Output: Identity}, tc.params); err == nil {
			t.Errorf("%s: NewInferenceMLP accepted a mismatched shape", name)
		}
	}
}
