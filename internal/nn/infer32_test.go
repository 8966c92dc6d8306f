package nn

import (
	"errors"
	"math"
	"testing"

	"targad/internal/mat"
	"targad/internal/rng"
)

func buildTestMLP(t *testing.T, hidden, output Activation) *MLP {
	t.Helper()
	m, err := NewMLP(MLPConfig{Dims: []int{12, 24, 16, 5}, Hidden: hidden, Output: output}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInference32MatchesF64 bounds the float32 forward pass against the
// float64 one across every activation pairing the models use. The bound
// is loose-deterministic: for these small nets the relative error per
// output stays well under 1e-4; the assertion pins 1e-3 of the value
// magnitude (plus an absolute floor for near-zero outputs).
func TestInference32MatchesF64(t *testing.T) {
	cases := []struct {
		name           string
		hidden, output Activation
	}{
		{"relu-identity", ReLU, Identity},     // classifier topology
		{"leaky-sigmoid", LeakyReLU, Sigmoid}, // autoencoder topology
		{"tanh-identity", Tanh, Identity},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := buildTestMLP(t, tc.hidden, tc.output)
			x := mat.New(9, 12)
			r := rng.New(17)
			for i := range x.Data {
				x.Data[i] = r.Normal(0, 1)
			}
			want := m.Forward(x)

			p, err := m.Params32()
			if err != nil {
				t.Fatal(err)
			}
			inf := NewInference32(p)
			got := inf.Forward(mat.ToF32(nil, x))
			if got.Rows != want.Rows || got.Cols != want.Cols {
				t.Fatalf("shape %dx%d, want %dx%d", got.Rows, got.Cols, want.Rows, want.Cols)
			}
			for i := range got.Data {
				diff := math.Abs(float64(got.Data[i]) - want.Data[i])
				tol := 1e-3*math.Abs(want.Data[i]) + 1e-5
				if diff > tol {
					t.Fatalf("output %d: f32=%v f64=%v (diff %g > tol %g)", i, got.Data[i], want.Data[i], diff, tol)
				}
			}
		})
	}
}

// TestInference32ReplicasConcurrent runs several replicas of one
// Params32 concurrently (meaningful under -race) and checks they all
// produce identical bytes: replicas share read-only parameters and the
// kernels are deterministic per binary/CPU.
func TestInference32ReplicasConcurrent(t *testing.T) {
	m := buildTestMLP(t, ReLU, Identity)
	p, err := m.Params32()
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(6, 12)
	r := rng.New(23)
	for i := range x.Data {
		x.Data[i] = r.Normal(0, 1)
	}
	x32 := mat.ToF32(nil, x)
	base := NewInference32(p).Forward(x32).Clone()

	const replicas = 8
	results := make([]*mat.Matrix32, replicas)
	done := make(chan int, replicas)
	for g := 0; g < replicas; g++ {
		go func(g int) {
			inf := NewInference32(p)
			var out *mat.Matrix32
			for iter := 0; iter < 20; iter++ {
				out = inf.Forward(x32)
			}
			results[g] = out.Clone()
			done <- g
		}(g)
	}
	for g := 0; g < replicas; g++ {
		<-done
	}
	for g, res := range results {
		for i, v := range res.Data {
			if v != base.Data[i] {
				t.Fatalf("replica %d element %d = %v, want %v (bitwise)", g, i, v, base.Data[i])
			}
		}
	}
}

// TestParams32RejectsBadValues: every class of unconvertible value
// surfaces a typed *ConvertError naming the parameter, instead of
// narrowing to Inf/NaN and serving garbage.
func TestParams32RejectsBadValues(t *testing.T) {
	cases := []struct {
		name   string
		value  float64
		reason string
	}{
		{"nan", math.NaN(), "non-finite"},
		{"pos-inf", math.Inf(1), "non-finite"},
		{"neg-inf", math.Inf(-1), "non-finite"},
		{"overflow", 1e300, "overflows float32"},
		{"neg-overflow", -math.MaxFloat64, "overflows float32"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := buildTestMLP(t, ReLU, Identity)
			m.Params()[2].Data[7] = tc.value
			_, err := m.Params32()
			var ce *ConvertError
			if !errors.As(err, &ce) {
				t.Fatalf("err = %v, want *ConvertError", err)
			}
			if ce.Index != 7 || ce.Reason != tc.reason || ce.Param == "" {
				t.Fatalf("ConvertError = %+v, want index 7 reason %q with param name", ce, tc.reason)
			}
		})
	}
}
