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
