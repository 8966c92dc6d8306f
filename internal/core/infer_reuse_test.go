package core

import (
	"context"
	"testing"

	"targad/internal/mat"
	"targad/internal/parallel"
	"targad/internal/rng"
)

func reuseBatch(rows, dim int, seed int64) *mat.Matrix {
	r := rng.New(seed)
	x := mat.New(rows, dim)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	return x
}

// TestInferReuseBitwiseIdentical pins the arena contract behind
// InferOptions.Reuse: recycling one InferResult across batches of
// growing and shrinking sizes returns values bitwise-identical to a
// fresh call, while the backing buffers stop churning once grown.
func TestInferReuseBitwiseIdentical(t *testing.T) {
	m := fixtureLoadedModel(t)
	opt := InferOptions{Strategies: OODStrategies(), Probs: true}

	var reused *InferResult
	for pass, rows := range []int{3, 17, 5, 17, 1} {
		x := reuseBatch(rows, m.dim, int64(100+pass))
		want, err := m.Infer(context.Background(), x, opt)
		if err != nil {
			t.Fatal(err)
		}
		ro := opt
		ro.Reuse = reused
		got, err := m.Infer(context.Background(), x, ro)
		if err != nil {
			t.Fatal(err)
		}
		if reused != nil && got != reused {
			t.Fatal("reuse call returned a different result struct")
		}
		reused = got

		if len(got.Scores) != rows {
			t.Fatalf("pass %d: %d scores, want %d", pass, len(got.Scores), rows)
		}
		for i := range want.Scores {
			if got.Scores[i] != want.Scores[i] {
				t.Fatalf("pass %d: reused score %d differs", pass, i)
			}
		}
		for _, s := range OODStrategies() {
			for i := range want.Kinds[s] {
				if got.Kinds[s][i] != want.Kinds[s][i] {
					t.Fatalf("pass %d: reused %s decision %d differs", pass, s, i)
				}
			}
		}
		if got.Probs.Rows != want.Probs.Rows || got.Probs.Cols != want.Probs.Cols {
			t.Fatalf("pass %d: probs %dx%d, want %dx%d", pass, got.Probs.Rows, got.Probs.Cols, want.Probs.Rows, want.Probs.Cols)
		}
		for i := range want.Probs.Data {
			if got.Probs.Data[i] != want.Probs.Data[i] {
				t.Fatalf("pass %d: reused probability %d differs", pass, i)
			}
		}
	}

	// Once grown to the largest batch, a smaller batch must not
	// reallocate the score buffer.
	x := reuseBatch(4, m.dim, 999)
	prev := &reused.Scores[0]
	ro := opt
	ro.Reuse = reused
	got, err := m.Infer(context.Background(), x, ro)
	if err != nil {
		t.Fatal(err)
	}
	if &got.Scores[0] != prev {
		t.Fatal("shrinking reuse call reallocated the score buffer")
	}
}

// TestInferReuseDropsStaleStrategies pins the staleness guard: a
// recycled result never exposes a decision vector for a strategy the
// latest call did not compute.
func TestInferReuseDropsStaleStrategies(t *testing.T) {
	m := fixtureLoadedModel(t)
	x := fixtureInput(m.dim)

	res, err := m.Infer(context.Background(), x, InferOptions{Strategies: []OODStrategy{ED, ES}})
	if err != nil {
		t.Fatal(err)
	}
	res, err = m.Infer(context.Background(), x, InferOptions{Strategies: []OODStrategy{MSP}, Reuse: res})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := res.Kinds[ED]; ok {
		t.Fatal("stale ED decisions survived a reuse call that asked for MSP only")
	}
	if _, ok := res.Kinds[MSP]; !ok {
		t.Fatal("requested MSP decisions missing")
	}
	res, err = m.Infer(context.Background(), x, InferOptions{Reuse: res})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Kinds) != 0 {
		t.Fatalf("strategy-free reuse call left %d stale decision vectors", len(res.Kinds))
	}
}

// TestInferF32ReuseBitwise: reuse on the f32 path returns the same
// bits as a fresh call, including score-only calls into a result that
// carries probabilities and decisions from an earlier call.
func TestInferF32ReuseBitwise(t *testing.T) {
	m := loadFixtureF32(t, fixtureModelV2)
	strategies := calibratedStrategies(m)
	x := fixtureInput(m.dim)

	opt := InferOptions{Strategies: strategies, Probs: true}
	want, err := m.InferF32(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.InferF32(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	got2, err := m.InferF32(context.Background(), x, InferOptions{Strategies: strategies, Probs: true, Reuse: got})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Scores {
		if got2.Scores[i] != want.Scores[i] {
			t.Fatalf("f32 reuse score %d differs", i)
		}
	}
	for _, s := range strategies {
		for i := range want.Kinds[s] {
			if got2.Kinds[s][i] != want.Kinds[s][i] {
				t.Fatalf("f32 reuse %s decision %d differs", s, i)
			}
		}
	}
	for i := range want.Probs.Data {
		if got2.Probs.Data[i] != want.Probs.Data[i] {
			t.Fatalf("f32 reuse probability %d differs", i)
		}
	}
	fast, err := m.InferF32(context.Background(), x, InferOptions{Reuse: got2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Scores {
		if fast.Scores[i] != want.Scores[i] {
			t.Fatalf("f32 reuse score-only score %d differs", i)
		}
	}
}

// TestInferMSPAllocsFlat: an MSP decision reads the probability row
// the inference body already computed, so a reused Infer call makes the
// same number of allocations whatever the batch size.
func TestInferMSPAllocsFlat(t *testing.T) {
	m := fixtureLoadedModel(t)
	if _, ok := m.IdentifyThreshold(MSP); !ok {
		t.Fatal("fixture has no MSP threshold")
	}
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	opt := InferOptions{Strategies: []OODStrategy{MSP}}
	allocs := func(rows int) float64 {
		x := reuseBatch(rows, m.dim, int64(rows))
		res, err := m.Infer(context.Background(), x, opt)
		if err != nil {
			t.Fatal(err)
		}
		o := opt
		o.Reuse = res
		return testing.AllocsPerRun(20, func() {
			if _, err := m.Infer(context.Background(), x, o); err != nil {
				t.Fatal(err)
			}
		})
	}
	wide := allocs(64) // grows the pooled replica's workspaces first
	if one := allocs(1); one != wide {
		t.Fatalf("Infer with MSP: %v allocs at 1 row, %v at 64 rows", one, wide)
	}
}
