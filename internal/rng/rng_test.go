package rng

import (
	"math"
	"testing"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 100; i++ {
		if a.Float64() != b.Float64() {
			t.Fatal("same seed must yield identical streams")
		}
	}
}

func TestSplitDeterministicAndDistinct(t *testing.T) {
	a1 := New(7).Split("x")
	a2 := New(7).Split("x")
	b := New(7).Split("y")
	var sameAsB bool
	for i := 0; i < 50; i++ {
		v1, v2, vb := a1.Float64(), a2.Float64(), b.Float64()
		if v1 != v2 {
			t.Fatal("Split with same label must be deterministic")
		}
		if v1 == vb {
			sameAsB = true
		}
	}
	if sameAsB && New(7).Split("x").Float64() == New(7).Split("y").Float64() {
		t.Fatal("Split with different labels should differ")
	}
}

func TestSplitNDistinct(t *testing.T) {
	p := New(3)
	c0 := p.SplitN("ae", 0)
	c1 := p.SplitN("ae", 1)
	if c0.Float64() == c1.Float64() && c0.Float64() == c1.Float64() {
		t.Fatal("SplitN children should differ")
	}
}

func TestUniformRange(t *testing.T) {
	r := New(1)
	for i := 0; i < 1000; i++ {
		v := r.Uniform(2, 5)
		if v < 2 || v >= 5 {
			t.Fatalf("Uniform out of range: %v", v)
		}
	}
}

func TestNormalMoments(t *testing.T) {
	r := New(5)
	n := 20000
	var sum, sq float64
	for i := 0; i < n; i++ {
		v := r.Normal(3, 2)
		sum += v
		sq += v * v
	}
	mean := sum / float64(n)
	std := math.Sqrt(sq/float64(n) - mean*mean)
	if math.Abs(mean-3) > 0.1 {
		t.Fatalf("Normal mean = %v, want ~3", mean)
	}
	if math.Abs(std-2) > 0.1 {
		t.Fatalf("Normal std = %v, want ~2", std)
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(11)
	s := r.Sample(10, 5)
	seen := map[int]bool{}
	for _, v := range s {
		if v < 0 || v >= 10 {
			t.Fatalf("sample out of range: %d", v)
		}
		if seen[v] {
			t.Fatalf("duplicate sample %d", v)
		}
		seen[v] = true
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Sample(k>n) must panic")
		}
	}()
	r.Sample(3, 4)
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := New(13)
	w := []float64{0, 1, 0, 3}
	counts := make([]int, 4)
	for i := 0; i < 4000; i++ {
		counts[r.Choice(w)]++
	}
	if counts[0] != 0 || counts[2] != 0 {
		t.Fatalf("zero-weight entries chosen: %v", counts)
	}
	ratio := float64(counts[3]) / float64(counts[1])
	if ratio < 2.5 || ratio > 3.6 {
		t.Fatalf("weight ratio = %v, want ~3", ratio)
	}
}

func TestChoiceAllZeroUniform(t *testing.T) {
	r := New(17)
	counts := make([]int, 3)
	for i := 0; i < 3000; i++ {
		counts[r.Choice([]float64{0, 0, 0})]++
	}
	for i, c := range counts {
		if c < 800 {
			t.Fatalf("all-zero Choice not ~uniform: bucket %d has %d", i, c)
		}
	}
}

func TestPermIsPermutation(t *testing.T) {
	p := New(23).Perm(50)
	seen := make([]bool, 50)
	for _, v := range p {
		if seen[v] {
			t.Fatalf("duplicate %d in Perm", v)
		}
		seen[v] = true
	}
}

func TestFillers(t *testing.T) {
	r := New(29)
	u := make([]float64, 100)
	r.FillUniform(u, -1, 1)
	for _, v := range u {
		if v < -1 || v >= 1 {
			t.Fatalf("FillUniform out of range: %v", v)
		}
	}
	n := make([]float64, 100)
	r.FillNormal(n, 0, 1)
	var allZero = true
	for _, v := range n {
		if v != 0 {
			allZero = false
		}
	}
	if allZero {
		t.Fatal("FillNormal produced all zeros")
	}
}

func TestBernoulliExtremes(t *testing.T) {
	r := New(37)
	for i := 0; i < 100; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) fired")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) did not fire")
		}
	}
}
