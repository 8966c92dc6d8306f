package core

import (
	"bytes"
	"context"
	"errors"
	"math"
	"os"
	"testing"

	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/parallel"
)

// loadFixtureF32 loads a committed model fixture and enables float32
// inference on it.
func loadFixtureF32(t *testing.T, path string) *Model {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing fixture %s: %v", path, err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	if err := m.EnableF32(); err != nil {
		t.Fatal(err)
	}
	return m
}

// calibratedStrategies returns the strategies the model has thresholds
// for.
func calibratedStrategies(m *Model) []OODStrategy {
	var out []OODStrategy
	for _, s := range OODStrategies() {
		if _, ok := m.IdentifyThreshold(s); ok {
			out = append(out, s)
		}
	}
	return out
}

// TestInferF32ScoreOnlyBitwise pins score-only requests (no
// strategies, no probabilities) to probability-carrying ones: the
// scores must be bitwise-identical, so what else a caller asks for
// never changes a score.
func TestInferF32ScoreOnlyBitwise(t *testing.T) {
	m := loadFixtureF32(t, fixtureModelV2)
	x := fixtureInput(m.dim)
	fast, err := m.InferF32(context.Background(), x, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	full, err := m.InferF32(context.Background(), x, InferOptions{Probs: true})
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range fast.Scores {
		if s != full.Scores[i] {
			t.Fatalf("score %d: fast path %v, probs path %v (must be bitwise)", i, s, full.Scores[i])
		}
	}
}

// TestInferF32SharesInferTail pins the f32 path's contract: past the
// float32 forward pass, InferF32 is Infer's tail bit for bit — the
// exactly widened logits go through nn.SoftmaxRowsInto and decide, so
// scores, decisions and probabilities carry no other f32 rounding.
func TestInferF32SharesInferTail(t *testing.T) {
	for _, path := range []string{fixtureModel, fixtureModelV2} {
		m := loadFixtureF32(t, path)
		opt := InferOptions{Strategies: []OODStrategy{MSP, ES, ED}, Probs: true}
		thresholds, err := m.checkCall(context.Background(), m.dim, opt.Strategies)
		if err != nil {
			t.Fatal(err)
		}
		p, err := m.clf.Params32()
		if err != nil {
			t.Fatal(err)
		}
		for _, x := range []*mat.Matrix{fixtureInput(m.dim), reuseBatch(300, m.dim, 11)} {
			got, err := m.InferF32(context.Background(), x, opt)
			if err != nil {
				t.Fatal(err)
			}
			w := mat.ToF64(nil, nn.NewInference32(p).Forward(mat.ToF32(nil, x)))
			want := m.decide(nn.SoftmaxRowsInto(nil, w), w, opt, thresholds)
			for i, s := range want.Scores {
				if got.Scores[i] != s {
					t.Fatalf("%s, %d rows: score %d = %v, tail gives %v (must be bitwise)", path, x.Rows, i, got.Scores[i], s)
				}
			}
			for _, s := range opt.Strategies {
				for i, k := range want.Kinds[s] {
					if got.Kinds[s][i] != k {
						t.Fatalf("%s, %d rows: %s decision %d = %v, tail gives %v", path, x.Rows, s, i, got.Kinds[s][i], k)
					}
				}
			}
			for i, v := range want.Probs.Data {
				if got.Probs.Data[i] != v {
					t.Fatalf("%s, %d rows: probability %d = %v, tail gives %v (must be bitwise)", path, x.Rows, i, got.Probs.Data[i], v)
				}
			}
		}
	}
}

func TestInferF32RequiresEnable(t *testing.T) {
	raw, err := os.ReadFile(fixtureModelV2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	_, err = m.InferF32(context.Background(), fixtureInput(m.dim), InferOptions{})
	if !errors.Is(err, ErrF32NotEnabled) {
		t.Fatalf("InferF32 before EnableF32: err = %v, want ErrF32NotEnabled", err)
	}
}

func TestEnableF32RejectsPoisonedParams(t *testing.T) {
	raw, err := os.ReadFile(fixtureModelV2)
	if err != nil {
		t.Fatal(err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	m.clf.Params()[0].Data[3] = math.NaN()
	err = m.EnableF32()
	var ce *nn.ConvertError
	if !errors.As(err, &ce) {
		t.Fatalf("EnableF32 on NaN param: err = %v, want *nn.ConvertError", err)
	}
	// The failed enable must leave f32 inference off, not half-armed.
	if m.f32params != nil {
		t.Fatal("failed EnableF32 left f32 params armed")
	}
	_, err = m.InferF32(context.Background(), fixtureInput(m.dim), InferOptions{})
	if !errors.Is(err, ErrF32NotEnabled) {
		t.Fatalf("InferF32 after failed enable: err = %v, want ErrF32NotEnabled", err)
	}
}

func TestInferF32DimMismatch(t *testing.T) {
	m := loadFixtureF32(t, fixtureModelV2)
	if _, err := m.InferF32(context.Background(), mat.New(2, m.dim+1), InferOptions{}); !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("dim mismatch: err = %v, want ErrDimMismatch", err)
	}
}

// TestInferF32Concurrent hammers one enabled model from many
// goroutines (the race smoke in ci.sh picks this up via the TestInfer
// prefix) and checks every goroutine gets identical bytes: the f32
// path is deterministic per binary/CPU regardless of replica reuse.
func TestInferF32Concurrent(t *testing.T) {
	m := loadFixtureF32(t, fixtureModelV2)
	x := fixtureInput(m.dim)
	opt := InferOptions{Strategies: calibratedStrategies(m), Probs: true}
	base, err := m.InferF32(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	const goroutines = 8
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		go func() {
			for iter := 0; iter < 25; iter++ {
				res, err := m.InferF32(context.Background(), x, opt)
				if err != nil {
					errs <- err
					return
				}
				for i := range base.Scores {
					if res.Scores[i] != base.Scores[i] {
						errs <- errors.New("concurrent InferF32 scores diverged")
						return
					}
				}
				for s, kinds := range base.Kinds {
					for i := range kinds {
						if res.Kinds[s][i] != kinds[i] {
							errs <- errors.New("concurrent InferF32 decisions diverged")
							return
						}
					}
				}
			}
			errs <- nil
		}()
	}
	for g := 0; g < goroutines; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

// TestInferF32WorkerInvariance: the softmax's parallel chunk split
// never changes a row's value.
func TestInferF32WorkerInvariance(t *testing.T) {
	m := loadFixtureF32(t, fixtureModelV2)
	x := fixtureInput(m.dim)
	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	base, err := m.InferF32(context.Background(), x, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range []int{2, 4} {
		parallel.SetWorkers(w)
		res, err := m.InferF32(context.Background(), x, InferOptions{})
		if err != nil {
			t.Fatal(err)
		}
		for i := range base.Scores {
			if res.Scores[i] != base.Scores[i] {
				t.Fatalf("workers=%d: score %d = %v, want %v (bitwise)", w, i, res.Scores[i], base.Scores[i])
			}
		}
	}
}

// TestInferF32RowBatchInvariant: a row's f32 scores, probabilities and
// decisions are the same whether it is scored alone or in a batch of
// 64, because mat.Mul32 chooses its kernels from the weight shape
// alone.
func TestInferF32RowBatchInvariant(t *testing.T) {
	m := loadFixtureF32(t, fixtureModelV2)
	x := reuseBatch(64, m.dim, 3)
	opt := InferOptions{Strategies: []OODStrategy{ED}, Probs: true}
	batch, err := m.InferF32(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	row := mat.New(1, m.dim)
	for i := 0; i < x.Rows; i++ {
		copy(row.Data, x.Row(i))
		alone, err := m.InferF32(context.Background(), row, opt)
		if err != nil {
			t.Fatal(err)
		}
		if alone.Scores[0] != batch.Scores[i] {
			t.Fatalf("row %d: score %v alone, %v in the batch", i, alone.Scores[0], batch.Scores[i])
		}
		if alone.Kinds[ED][0] != batch.Kinds[ED][i] {
			t.Fatalf("row %d: decision %v alone, %v in the batch", i, alone.Kinds[ED][0], batch.Kinds[ED][i])
		}
		for j, p := range alone.Probs.Row(0) {
			if p != batch.Probs.At(i, j) {
				t.Fatalf("row %d: probability %d is %v alone, %v in the batch", i, j, p, batch.Probs.At(i, j))
			}
		}
	}
}
