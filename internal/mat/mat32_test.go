package mat

import (
	"math"
	"testing"
)

func TestEnsure32Reuse(t *testing.T) {
	m := Ensure32(nil, 4, 8)
	if m.Rows != 4 || m.Cols != 8 || len(m.Data) != 32 {
		t.Fatalf("Ensure32(nil) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	p := &m.Data[0]
	shrunk := Ensure32(m, 2, 8)
	if shrunk != m || &shrunk.Data[0] != p {
		t.Fatal("Ensure32 shrink reallocated")
	}
	grown := Ensure32(m, 16, 16)
	if grown != m {
		t.Fatal("Ensure32 grow returned a different matrix")
	}
	if grown.Rows != 16 || grown.Cols != 16 {
		t.Fatalf("grow = %dx%d", grown.Rows, grown.Cols)
	}
}

func TestToF32ToF64RoundTrip(t *testing.T) {
	src := New(3, 5)
	fillDet(src.Data, 99)
	narrow := ToF32(nil, src)
	wide := ToF64(nil, narrow)
	for i, v := range src.Data {
		if wide.Data[i] != float64(float32(v)) {
			t.Fatalf("element %d: round trip %v, want %v", i, wide.Data[i], float64(float32(v)))
		}
	}
	// Reuse path: same backing array, no growth.
	p := &narrow.Data[0]
	if again := ToF32(narrow, src); again != narrow || &again.Data[0] != p {
		t.Fatal("ToF32 with adequate dst reallocated")
	}
	huge := New(1, 1)
	huge.Data[0] = math.MaxFloat64
	if v := ToF32(nil, huge).Data[0]; !math.IsInf(float64(v), 1) {
		t.Fatalf("overflow narrowed to %v, want +Inf", v)
	}
}

func TestSoftmax32MatchesF64(t *testing.T) {
	logits64 := []float64{1.5, -2, 0.25, 7, 7}
	logits32 := make([]float32, len(logits64))
	for i, v := range logits64 {
		logits32[i] = float32(v)
	}
	got := make([]float32, len(logits32))
	Softmax32(got, logits32)
	want := make([]float64, len(logits64))
	Softmax(want, logits64)
	var sum float64
	for i, v := range got {
		if math.Abs(float64(v)-want[i]) > 1e-6 {
			t.Fatalf("prob %d = %v, f64 reference %v", i, v, want[i])
		}
		sum += float64(v)
	}
	if math.Abs(sum-1) > 1e-6 {
		t.Fatalf("probabilities sum to %v", sum)
	}
}

// TestSoftmaxHeadMax32Bitwise pins the fast path's contract: for any
// row, SoftmaxHeadMax32 equals Softmax32-then-max-over-the-widened-head
// bitwise, so score-only inference and probability-carrying inference
// (which widens the f32 softmax rows and takes ArgMax) report identical
// scores.
func TestSoftmaxHeadMax32Bitwise(t *testing.T) {
	rows := [][]float32{
		{1.5, -2, 0.25, 7, 7, -30},
		{0, 0, 0},
		{-100, 50, 49.5, 3},
		{2.5},
		{-1e30, 1e30, 0, 5},
	}
	for _, logits := range rows {
		for m := 1; m <= len(logits); m++ {
			probs := make([]float32, len(logits))
			Softmax32(probs, logits)
			head := make([]float64, m)
			for j, p := range probs[:m] {
				head[j] = float64(p)
			}
			_, want := ArgMax(head)
			if got := SoftmaxHeadMax32(logits, m); got != want {
				t.Fatalf("SoftmaxHeadMax32(%v, %d) = %v, softmax+argmax = %v (must be bitwise)", logits, m, got, want)
			}
		}
	}
}

// TestExpNeg sweeps the softmax exponential's whole input range against
// math.Exp. The documented contract is relative error under one float32
// ulp (2⁻²³ ≈ 1.19e-7); the pin leaves a little headroom over the
// worst-case Taylor truncation plus float64 rounding.
func TestExpNeg(t *testing.T) {
	const relTol = 1.8e-7
	for x := 0.0; x > -690; x -= 0.0137 {
		got, want := expNeg(x), math.Exp(x)
		if math.Abs(got-want) > relTol*want {
			t.Fatalf("expNeg(%v) = %v, math.Exp = %v (rel err %g)", x, got, want, math.Abs(got-want)/want)
		}
	}
	if got := expNeg(-701); got != 0 {
		t.Fatalf("expNeg(-701) = %v, want exact 0", got)
	}
	if got := expNeg(0); got != 1 {
		t.Fatalf("expNeg(0) = %v, want exact 1", got)
	}
	if got := expNeg(math.NaN()); !math.IsNaN(got) {
		t.Fatalf("expNeg(NaN) = %v, want NaN", got)
	}
	if got := expNeg(math.Inf(-1)); got != 0 {
		t.Fatalf("expNeg(-Inf) = %v, want 0", got)
	}
}
