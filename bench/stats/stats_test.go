package stats

import (
	"math"
	"testing"
)

func TestTailSupportedNeedsTenBeyond(t *testing.T) {
	cases := []struct {
		n    int
		q    float64
		want bool
	}{
		{999, 0.99, false},
		{1000, 0.99, true},
		{5000, 0.99, true},
		{19, 0.5, false},
		{20, 0.5, true},
		{99, 0.9, false},
		{100, 0.9, true},
	}
	for _, c := range cases {
		if got := TailSupported(c.n, c.q); got != c.want {
			t.Errorf("TailSupported(%d, %g) = %v, want %v", c.n, c.q, got, c.want)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	s := []float64{1, 2, 3, 4, 5}
	for _, c := range []struct{ q, want float64 }{{0, 1}, {0.5, 3}, {0.25, 2}, {0.9, 4.6}, {1, 5}} {
		if got := Percentile(s, c.q); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("Percentile(%g) = %g, want %g", c.q, got, c.want)
		}
	}
	if !math.IsNaN(Percentile(nil, 0.5)) {
		t.Error("Percentile of an empty sample should be NaN")
	}
	if got := Median([]float64{9, 1, 5, 3}); got != 4 {
		t.Errorf("Median = %g, want 4", got)
	}
}

// TestQuartilesMatchPython pins the cut points against values printed
// by Python's statistics.quantiles(data, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		data       []float64
		q1, q2, q3 float64
	}{
		// statistics.quantiles([1..10], n=4) -> [2.75, 5.5, 8.25]
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, 2.75, 5.5, 8.25},
		// statistics.quantiles([1, 2], n=4) -> [0.75, 1.5, 2.25]
		{[]float64{2, 1}, 0.75, 1.5, 2.25},
		// statistics.quantiles([3, 1, 2, 10, 4], n=4) -> [1.5, 3.0, 7.0]
		{[]float64{3, 1, 2, 10, 4}, 1.5, 3, 7},
	}
	for _, c := range cases {
		q1, q2, q3 := Quartiles(c.data)
		if math.Abs(q1-c.q1) > 1e-12 || math.Abs(q2-c.q2) > 1e-12 || math.Abs(q3-c.q3) > 1e-12 {
			t.Errorf("Quartiles(%v) = %g %g %g, want %g %g %g", c.data, q1, q2, q3, c.q1, c.q2, c.q3)
		}
	}
	if got := Spread([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}); math.Abs(got-1) > 1e-12 {
		t.Errorf("Spread = %g, want 1 (IQR 5.5 over median 5.5)", got)
	}
}
