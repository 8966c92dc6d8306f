package common

import (
	"math"
	"testing"

	"targad/internal/mat"
)

func TestArgsort(t *testing.T) {
	v := []float64{2, 5, 1, 5}
	desc := ArgsortDesc(v)
	if desc[0] != 1 || desc[1] != 3 || desc[2] != 0 || desc[3] != 2 {
		t.Fatalf("ArgsortDesc = %v", desc)
	}
}

func TestMean(t *testing.T) {
	x, _ := mat.FromRows([][]float64{{1, 2}, {3, 4}, {5, 6}})
	all := Mean(x, nil)
	if all[0] != 3 || all[1] != 4 {
		t.Fatalf("Mean(all) = %v", all)
	}
	sub := Mean(x, []int{0, 2})
	if sub[0] != 3 || sub[1] != 4 {
		t.Fatalf("Mean(sub) = %v", sub)
	}
	empty := Mean(x, []int{})
	if empty[0] != 0 {
		t.Fatalf("Mean(empty) = %v", empty)
	}
}

func TestMinDistTo(t *testing.T) {
	x, _ := mat.FromRows([][]float64{{0, 0}, {10, 0}})
	ref, _ := mat.FromRows([][]float64{{3, 4}, {9, 0}})
	d := MinDistTo(x, ref)
	if math.Abs(d[0]-5) > 1e-12 {
		t.Fatalf("d[0] = %v, want 5", d[0])
	}
	if math.Abs(d[1]-1) > 1e-12 {
		t.Fatalf("d[1] = %v, want 1", d[1])
	}
}
