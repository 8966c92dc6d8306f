package nn

import (
	"testing"

	"targad/internal/mat"
	"targad/internal/parallel"
	"targad/internal/rng"
)

// The workspace-reuse contract: once a layer (or a whole training
// step) has run at its steady-state batch shape, repeating it must
// allocate nothing. All tests pin the worker pool to one worker — the
// serial path is the allocation-free one; multi-worker dispatch pays a
// small per-call closure cost by design.
//
// The race detector's instrumentation allocates on paths that are
// otherwise allocation-free, so the zero-alloc assertions only hold in
// non-race builds; skipAllocCheckUnderRace guards them.

func skipAllocCheckUnderRace(t *testing.T) {
	t.Helper()
	if raceEnabled {
		t.Skip("race-detector instrumentation inflates allocation counts")
	}
}

func TestDenseSteadyStateAllocs(t *testing.T) {
	skipAllocCheckUnderRace(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	r := rng.New(7)
	d := NewDense(48, 32, Identity, HeNormal, r)
	x := mat.New(64, 48)
	r.FillNormal(x.Data, 0, 1)

	out := d.Forward(x)
	grad := mat.New(out.Rows, out.Cols)
	r.FillNormal(grad.Data, 0, 1)
	d.Backward(grad)

	if n := testing.AllocsPerRun(20, func() { d.Forward(x) }); n > 0 {
		t.Fatalf("Dense.Forward allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { d.Backward(grad) }); n > 0 {
		t.Fatalf("Dense.Backward allocates %.1f times per call, want 0", n)
	}
}

// TestActSteadyStateAllocs repeats the Dense check with every
// activation: the fused bias-and-activation pass and the in-place
// derivative must not allocate either.
func TestActSteadyStateAllocs(t *testing.T) {
	skipAllocCheckUnderRace(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	r := rng.New(9)
	x := mat.New(64, 32)
	r.FillNormal(x.Data, 0, 1)
	grad := mat.New(64, 24)
	r.FillNormal(grad.Data, 0, 1)
	for _, act := range testActivations {
		d := NewDense(32, 24, act, HeNormal, r)
		d.Forward(x)
		d.Backward(grad)
		if n := testing.AllocsPerRun(20, func() { d.Forward(x) }); n > 0 {
			t.Fatalf("%v Forward allocates %.1f times per call, want 0", act, n)
		}
		if n := testing.AllocsPerRun(20, func() { d.Backward(grad) }); n > 0 {
			t.Fatalf("%v Backward allocates %.1f times per call, want 0", act, n)
		}
	}
}

func TestMLPParamsCached(t *testing.T) {
	m, err := NewMLP(MLPConfig{Dims: []int{8, 6, 4}, Hidden: ReLU, Output: Identity}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	p1 := m.Params()
	if !raceEnabled { // keep the identity checks below under -race
		if n := testing.AllocsPerRun(10, func() { m.Params() }); n > 0 {
			t.Fatalf("cached Params allocates %.1f times per call, want 0", n)
		}
	}
	p2 := m.Params()
	if len(p1) != len(p2) || &p1[0] != &p2[0] {
		t.Fatal("Params did not return the cached slice")
	}
	// Callers appending to the result must not corrupt the cache.
	_ = append(m.Params(), &Param{Name: "extra"})
	if got := m.Params(); len(got) != len(p1) {
		t.Fatalf("append through cached slice grew Params to %d, want %d", len(got), len(p1))
	}
}

// TestMLPEpochSteadyStateAllocs drives one full supervised training
// epoch — gather, forward, loss, backward, optimizer step — through
// reused workspaces and requires zero steady-state allocation.
func TestMLPEpochSteadyStateAllocs(t *testing.T) {
	skipAllocCheckUnderRace(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	r := rng.New(3)
	m, err := NewMLP(MLPConfig{Dims: []int{32, 48, 8}, Hidden: ReLU, Output: Identity}, r)
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(256, 32)
	r.FillNormal(x.Data, 0, 1)
	y := mat.New(256, 8)
	for i := 0; i < y.Rows; i++ {
		y.Set(i, r.Intn(8), 1)
	}
	opt := NewAdam(1e-3)
	bat := NewBatcher(x.Rows, 64, r)
	var xb, yb, grad *mat.Matrix
	epoch := func() {
		for b := 0; b < bat.BatchesPerEpoch(); b++ {
			idx := bat.Next()
			xb = GatherInto(xb, x, idx)
			yb = GatherInto(yb, y, idx)
			m.ZeroGrad()
			logits := m.Forward(xb)
			_, g := SoftCrossEntropyInto(grad, logits, yb, nil)
			grad = g
			m.Backward(g)
			opt.Step(m.Params())
		}
	}
	epoch() // warm up workspaces, Adam state, and the batcher's perm
	if n := testing.AllocsPerRun(5, epoch); n > 0 {
		t.Fatalf("steady-state MLP epoch allocates %.1f times, want 0", n)
	}
}

func TestLossIntoSteadyStateAllocs(t *testing.T) {
	skipAllocCheckUnderRace(t)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	r := rng.New(5)
	logits := mat.New(64, 8)
	r.FillNormal(logits.Data, 0, 1)
	y := mat.New(64, 8)
	for i := 0; i < y.Rows; i++ {
		y.Set(i, r.Intn(8), 1)
	}
	target := mat.New(64, 8)
	r.FillNormal(target.Data, 0, 1)
	var ce, ent, mse *mat.Matrix
	_, ce = SoftCrossEntropyInto(ce, logits, y, nil)
	_, ent = EntropyInto(ent, logits)
	_, mse = MSEInto(mse, logits, target)
	if n := testing.AllocsPerRun(20, func() { SoftCrossEntropyInto(ce, logits, y, nil) }); n > 0 {
		t.Fatalf("SoftCrossEntropyInto allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { EntropyInto(ent, logits) }); n > 0 {
		t.Fatalf("EntropyInto allocates %.1f times per call, want 0", n)
	}
	if n := testing.AllocsPerRun(20, func() { MSEInto(mse, logits, target) }); n > 0 {
		t.Fatalf("MSEInto allocates %.1f times per call, want 0", n)
	}
}

// TestLossIntoMatchesAllocating pins the Into variants bitwise against
// the allocating originals: computing the softmax inside the gradient
// buffer must not change any arithmetic.
func TestLossIntoMatchesAllocating(t *testing.T) {
	r := rng.New(11)
	logits := mat.New(16, 6)
	r.FillNormal(logits.Data, 0, 2)
	y := mat.New(16, 6)
	for i := 0; i < y.Rows; i++ {
		y.Set(i, r.Intn(6), 1)
	}
	w := make([]float64, 16)
	r.FillUniform(w, 0, 1)

	l1, g1 := SoftCrossEntropy(logits, y, w)
	dst := mat.New(16, 6)
	r.FillNormal(dst.Data, 0, 1) // dirty workspace
	l2, g2 := SoftCrossEntropyInto(dst, logits, y, w)
	if l1 != l2 {
		t.Fatalf("CE loss %v != %v", l1, l2)
	}
	for i := range g1.Data {
		if g1.Data[i] != g2.Data[i] {
			t.Fatalf("CE grad[%d] %v != %v", i, g1.Data[i], g2.Data[i])
		}
	}

	l3, g3 := EntropyInto(nil, logits)
	r.FillNormal(dst.Data, 0, 1)
	l4, g4 := EntropyInto(dst, logits)
	if l3 != l4 {
		t.Fatalf("entropy loss %v != %v", l3, l4)
	}
	for i := range g3.Data {
		if g3.Data[i] != g4.Data[i] {
			t.Fatalf("entropy grad[%d] %v != %v", i, g3.Data[i], g4.Data[i])
		}
	}
}

func TestGatherIntoReuses(t *testing.T) {
	src := mat.New(8, 3)
	for i := range src.Data {
		src.Data[i] = float64(i)
	}
	dst := GatherInto(nil, src, []int{7, 0, 3})
	base := &dst.Data[0]
	dst = GatherInto(dst, src, []int{1, 2})
	if &dst.Data[0] != base {
		t.Fatal("GatherInto reallocated within capacity")
	}
	if dst.Rows != 2 || dst.At(0, 0) != src.At(1, 0) || dst.At(1, 2) != src.At(2, 2) {
		t.Fatal("GatherInto copied wrong rows")
	}
	// Through a subset: positions 2 and 0 of {5, 6, 4} are rows 4 and 5.
	dst = GatherSubsetInto(dst, src, []int{5, 6, 4}, []int{2, 0})
	if &dst.Data[0] != base {
		t.Fatal("GatherSubsetInto reallocated within capacity")
	}
	if dst.Rows != 2 || dst.At(0, 1) != src.At(4, 1) || dst.At(1, 2) != src.At(5, 2) {
		t.Fatal("GatherSubsetInto copied wrong rows")
	}
	v := GatherVecInto(nil, []float64{10, 11, 12, 13}, []int{3, 1})
	if v[0] != 13 || v[1] != 11 {
		t.Fatalf("GatherVecInto = %v", v)
	}
	vbase := &v[0]
	v = GatherVecInto(v, []float64{10, 11, 12, 13}, []int{0})
	if &v[0] != vbase || len(v) != 1 || v[0] != 10 {
		t.Fatal("GatherVecInto did not reuse capacity")
	}
}

// TestPermIntoMatchesPerm locks the stream-compatibility contract:
// PermInto must consume the RNG exactly as Perm and produce the same
// permutation, so buffer reuse cannot perturb seeded experiments.
func TestPermIntoMatchesPerm(t *testing.T) {
	r1, r2 := rng.New(42), rng.New(42)
	var buf []int
	for round := 0; round < 5; round++ {
		want := r1.Perm(17)
		buf = r2.PermInto(buf, 17)
		for i := range want {
			if buf[i] != want[i] {
				t.Fatalf("round %d: PermInto[%d] = %d, want %d", round, i, buf[i], want[i])
			}
		}
	}
	// Streams must stay aligned after interleaved use.
	if a, b := r1.Intn(1000), r2.Intn(1000); a != b {
		t.Fatalf("streams diverged after PermInto: %d vs %d", a, b)
	}
}
