package mat

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

// tame maps an arbitrary quick-generated float into [-10, 10] so
// property tests exercise realistic magnitudes instead of overflow.
func tame(v float64) float64 {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return 0
	}
	return math.Mod(v, 10)
}

func TestNewAndAccessors(t *testing.T) {
	m := New(2, 3)
	if m.Rows != 2 || m.Cols != 3 || len(m.Data) != 6 {
		t.Fatalf("New(2,3) = %dx%d len %d", m.Rows, m.Cols, len(m.Data))
	}
	m.Set(1, 2, 7)
	if got := m.At(1, 2); got != 7 {
		t.Fatalf("At(1,2) = %v, want 7", got)
	}
	row := m.Row(1)
	row[0] = 5
	if m.At(1, 0) != 5 {
		t.Fatal("Row must be a view, not a copy")
	}
}

func TestFromRows(t *testing.T) {
	m, err := FromRows([][]float64{{1, 2}, {3, 4}})
	if err != nil {
		t.Fatal(err)
	}
	if m.At(0, 1) != 2 || m.At(1, 0) != 3 {
		t.Fatalf("unexpected contents %v", m.Data)
	}
	if _, err := FromRows([][]float64{{1}, {2, 3}}); err == nil {
		t.Fatal("ragged rows must error")
	}
	empty, err := FromRows(nil)
	if err != nil || empty.Rows != 0 {
		t.Fatalf("empty FromRows = %v, %v", empty, err)
	}
}

func TestCloneIndependent(t *testing.T) {
	m, _ := FromRows([][]float64{{1, 2}})
	c := m.Clone()
	c.Set(0, 0, 9)
	if m.At(0, 0) != 1 {
		t.Fatal("Clone must not alias")
	}
}

func TestMulKnown(t *testing.T) {
	a, _ := FromRows([][]float64{{1, 2}, {3, 4}})
	b, _ := FromRows([][]float64{{5, 6}, {7, 8}})
	c, err := Mul(nil, a, b)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 22, 43, 50}
	for i, v := range want {
		if c.Data[i] != v {
			t.Fatalf("Mul = %v, want %v", c.Data, want)
		}
	}
}

func TestMulShapeError(t *testing.T) {
	a := New(2, 3)
	b := New(2, 3)
	if _, err := Mul(nil, a, b); err == nil {
		t.Fatal("2x3 · 2x3 must error")
	}
	dst := New(3, 3)
	b2 := New(3, 2)
	if _, err := Mul(dst, a, b2); err == nil {
		t.Fatal("wrong destination shape must error")
	}
}

func TestMulIdentityProperty(t *testing.T) {
	f := func(vals [9]float64) bool {
		a := New(3, 3)
		for i := range vals {
			a.Data[i] = tame(vals[i])
		}
		eye := New(3, 3)
		for i := 0; i < 3; i++ {
			eye.Set(i, i, 1)
		}
		c, err := Mul(nil, a, eye)
		if err != nil {
			return false
		}
		for i := range a.Data {
			if !almostEq(a.Data[i], c.Data[i], 1e-12) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulATBMatchesExplicitTranspose(t *testing.T) {
	f := func(av, bv [6]float64) bool {
		a := New(3, 2)
		b := New(3, 2)
		for i := range av {
			a.Data[i] = tame(av[i])
			b.Data[i] = tame(bv[i])
		}
		got, err := MulATB(nil, a, b)
		if err != nil {
			return false
		}
		want, err := Mul(nil, transpose(a), b)
		if err != nil {
			return false
		}
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMulABTMatchesExplicitTranspose(t *testing.T) {
	f := func(av, bv [6]float64) bool {
		a := New(2, 3)
		b := New(2, 3)
		for i := range av {
			a.Data[i] = tame(av[i])
			b.Data[i] = tame(bv[i])
		}
		got, err := MulABT(nil, a, b)
		if err != nil {
			return false
		}
		want, err := Mul(nil, a, transpose(b))
		if err != nil {
			return false
		}
		for i := range got.Data {
			if !almostEq(got.Data[i], want.Data[i], 1e-9) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// transpose returns a newly allocated aᵀ, the explicit reference the
// transposed-operand products are checked against.
func transpose(a *Matrix) *Matrix {
	t := New(a.Cols, a.Rows)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < a.Cols; j++ {
			t.Data[j*t.Cols+i] = a.Data[i*a.Cols+j]
		}
	}
	return t
}

func TestLogSumExpStable(t *testing.T) {
	// Large values must not overflow.
	v := LogSumExp([]float64{1000, 1000})
	if !almostEq(v, 1000+math.Log(2), 1e-9) {
		t.Fatalf("LogSumExp large = %v", v)
	}
	// Against naive computation in a safe range.
	x := []float64{-1, 0, 2.5}
	var naive float64
	for _, xi := range x {
		naive += math.Exp(xi)
	}
	if !almostEq(LogSumExp(x), math.Log(naive), 1e-12) {
		t.Fatalf("LogSumExp = %v, want %v", LogSumExp(x), math.Log(naive))
	}
	if !math.IsInf(LogSumExp(nil), -1) {
		t.Fatal("LogSumExp(nil) must be -Inf")
	}
}

func TestSoftmaxProperties(t *testing.T) {
	f := func(raw [5]float64) bool {
		logits := make([]float64, 5)
		for i, v := range raw {
			// Clamp generated values to a sane range.
			logits[i] = math.Mod(v, 50)
			if math.IsNaN(logits[i]) {
				logits[i] = 0
			}
		}
		out := make([]float64, 5)
		Softmax(out, logits)
		var sum float64
		for _, p := range out {
			if p < 0 || p > 1 || math.IsNaN(p) {
				return false
			}
			sum += p
		}
		return almostEq(sum, 1, 1e-9)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSoftmaxShiftInvariance(t *testing.T) {
	a := []float64{1, 2, 3}
	b := []float64{101, 102, 103}
	oa := make([]float64, 3)
	ob := make([]float64, 3)
	Softmax(oa, a)
	Softmax(ob, b)
	for i := range oa {
		if !almostEq(oa[i], ob[i], 1e-12) {
			t.Fatalf("softmax not shift invariant: %v vs %v", oa, ob)
		}
	}
}

func TestArgMax(t *testing.T) {
	i, v := ArgMax([]float64{1, 5, 5, 2})
	if i != 1 || v != 5 {
		t.Fatalf("ArgMax = (%d, %v), want (1, 5) (first max on tie)", i, v)
	}
}

func TestMinMaxMeanVariance(t *testing.T) {
	x := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	lo, hi := MinMax(x)
	if lo != 2 || hi != 9 {
		t.Fatalf("MinMax = (%v, %v)", lo, hi)
	}
	if !almostEq(Mean(x), 5, 1e-12) {
		t.Fatalf("Mean = %v", Mean(x))
	}
	if !almostEq(Variance(x), 4, 1e-12) {
		t.Fatalf("Variance = %v", Variance(x))
	}
	if !almostEq(Std(x), 2, 1e-12) {
		t.Fatalf("Std = %v", Std(x))
	}
	if Mean(nil) != 0 || Variance([]float64{3}) != 0 {
		t.Fatal("degenerate Mean/Variance must be 0")
	}
}

func TestAxpyScaleDot(t *testing.T) {
	y := []float64{1, 1, 1}
	Axpy(2, []float64{1, 2, 3}, y)
	want := []float64{3, 5, 7}
	for i := range want {
		if y[i] != want[i] {
			t.Fatalf("Axpy = %v", y)
		}
	}
	Scale(0.5, y)
	if y[2] != 3.5 {
		t.Fatalf("Scale = %v", y)
	}
}

func TestSquaredDistanceNorm(t *testing.T) {
	if d := SquaredDistance([]float64{0, 3}, []float64{4, 0}); d != 25 {
		t.Fatalf("SquaredDistance = %v", d)
	}
}
