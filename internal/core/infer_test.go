package core

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"slices"
	"sync"
	"testing"

	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/rng"
)

// fixtureLoadedModel loads the committed v1 fixture — a trained model
// with calibrated thresholds — so inference tests need no training.
func fixtureLoadedModel(t *testing.T) *Model {
	t.Helper()
	raw, err := os.ReadFile(fixtureModel)
	if err != nil {
		t.Fatalf("missing fixture: %v", err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// TestInferMatchesOfflinePaths pins Infer, Score and Identify to an
// in-test reference built from the classifier's own forward pass: the
// row softmax, Eq. (9)'s max over the first m probabilities, and the
// Section III-C rule (normal when the normal-class mass exceeds
// k/(m+k), else target when the strategy's ID-ness reaches its
// calibrated threshold).
func TestInferMatchesOfflinePaths(t *testing.T) {
	m := fixtureLoadedModel(t)
	x := fixtureInput(m.dim)

	logits := m.clf.Forward(x)
	wantProbs := nn.SoftmaxRows(logits)
	wantScores := make([]float64, x.Rows)
	wantKinds := map[OODStrategy][]dataset.Kind{}
	for i := 0; i < x.Rows; i++ {
		p, l := wantProbs.Row(i), logits.Row(i)
		_, wantScores[i] = mat.ArgMax(p[:m.m])
		var pNormal float64
		for _, v := range p[m.m:] {
			pNormal += v
		}
		_, msp := mat.ArgMax(p)
		lse := mat.LogSumExp(l)
		id := map[OODStrategy]float64{MSP: msp, ES: lse, ED: lse - mat.Mean(l)}
		for _, s := range OODStrategies() {
			thr, ok := m.IdentifyThreshold(s)
			if !ok {
				t.Fatalf("fixture has no %s threshold", s)
			}
			k := dataset.KindNonTarget
			switch {
			case pNormal > float64(m.k)/float64(m.m+m.k):
				k = dataset.KindNormal
			case id[s] >= thr:
				k = dataset.KindTarget
			}
			wantKinds[s] = append(wantKinds[s], k)
		}
	}

	res, err := m.Infer(context.Background(), x, InferOptions{Strategies: OODStrategies(), Probs: true})
	if err != nil {
		t.Fatal(err)
	}
	scores, err := m.Score(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantScores {
		if res.Scores[i] != wantScores[i] || scores[i] != wantScores[i] {
			t.Fatalf("score %d: Infer %v, Score %v, reference %v", i, res.Scores[i], scores[i], wantScores[i])
		}
	}
	for i := range wantProbs.Data {
		if res.Probs.Data[i] != wantProbs.Data[i] {
			t.Fatalf("Infer probability %d differs from the reference", i)
		}
	}
	for _, s := range OODStrategies() {
		ks, err := m.Identify(x, s)
		if err != nil {
			t.Fatal(err)
		}
		for i, k := range res.Kinds[s] {
			if k != wantKinds[s][i] || ks[i] != wantKinds[s][i] {
				t.Fatalf("%s decision %d: Infer %v, Identify %v, reference %v", s, i, k, ks[i], wantKinds[s][i])
			}
		}
	}
}

// TestInferConcurrentBitwiseIdentical is the race suite pinning the
// serving contract: N goroutines hammer Infer on one model with
// distinct batches while the pinned offline scores must come back
// bitwise-identical every time. Run under -race this also proves the
// replica pool keeps the goroutines off each other's workspaces.
func TestInferConcurrentBitwiseIdentical(t *testing.T) {
	m := fixtureLoadedModel(t)
	const goroutines = 8
	const iters = 25

	batches := make([]*mat.Matrix, goroutines)
	wantScores := make([][]float64, goroutines)
	wantKinds := make([][]int, goroutines)
	for g := range batches {
		r := rng.New(int64(31 + g))
		x := mat.New(5+g, m.dim)
		for i := range x.Data {
			x.Data[i] = r.Float64()
		}
		batches[g] = x
		s, err := m.Score(context.Background(), x)
		if err != nil {
			t.Fatal(err)
		}
		wantScores[g] = s
		ks, err := m.Identify(x, ED)
		if err != nil {
			t.Fatal(err)
		}
		ints := make([]int, len(ks))
		for i, k := range ks {
			ints[i] = int(k)
		}
		wantKinds[g] = ints
	}

	var wg sync.WaitGroup
	errs := make([]error, goroutines)
	fails := make([]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				res, err := m.Infer(context.Background(), batches[g], InferOptions{Strategies: []OODStrategy{ED}})
				if err != nil {
					errs[g] = err
					return
				}
				for i := range wantScores[g] {
					if res.Scores[i] != wantScores[g][i] {
						fails[g] = "concurrent Infer score diverged from offline Score"
						return
					}
					if int(res.Kinds[ED][i]) != wantKinds[g][i] {
						fails[g] = "concurrent Infer decision diverged from offline Identify"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	for g := 0; g < goroutines; g++ {
		if errs[g] != nil {
			t.Fatalf("goroutine %d: %v", g, errs[g])
		}
		if fails[g] != "" {
			t.Fatalf("goroutine %d: %s", g, fails[g])
		}
	}
}

// TestScoreIdentifyConcurrent: Score and Identify run on pooled
// replicas, so goroutines sharing one model get back, bit for bit, what
// a serial call returned on the same rows.
func TestScoreIdentifyConcurrent(t *testing.T) {
	m := fixtureLoadedModel(t)
	const goroutines = 8
	const iters = 10
	r := rng.New(77)
	x := mat.New(24, m.dim)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	wantScores, err := m.Score(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds, err := m.Identify(x, ED)
	if err != nil {
		t.Fatal(err)
	}

	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for iter := 0; iter < iters; iter++ {
				if g%2 == 0 {
					s, err := m.Score(context.Background(), x)
					if err == nil && !slices.Equal(s, wantScores) {
						err = errors.New("concurrent Score diverged from a serial call")
					}
					if errs[g] = err; err != nil {
						return
					}
					continue
				}
				ks, err := m.Identify(x, ED)
				if err == nil && !slices.Equal(ks, wantKinds) {
					err = errors.New("concurrent Identify diverged from a serial call")
				}
				if errs[g] = err; err != nil {
					return
				}
			}
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
}

func TestInferErrors(t *testing.T) {
	m := fixtureLoadedModel(t)

	if _, err := New(testConfig(), 1).Infer(context.Background(), mat.New(1, 3), InferOptions{}); err == nil {
		t.Fatal("Infer on an unfitted model must error")
	}
	_, err := m.Infer(context.Background(), mat.New(2, m.dim+1), InferOptions{})
	if !errors.Is(err, ErrDimMismatch) {
		t.Fatalf("Infer with the wrong dim must fail with ErrDimMismatch, got %v", err)
	}
	if want := fmt.Sprintf("targad: input dim %d, want %d", m.dim+1, m.dim); err.Error() != want {
		t.Fatalf("dim error %q, want %q", err, want)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := m.Infer(ctx, fixtureInput(m.dim), InferOptions{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled context must surface, got %v", err)
	}

	// An uncalibrated strategy fails typed, and Identify-free calls on
	// the same model still work.
	bare := New(testConfig(), 1)
	bare.m, bare.k, bare.dim = m.m, m.k, m.dim
	bare.clf = m.clf
	if _, err := bare.Infer(context.Background(), fixtureInput(m.dim), InferOptions{Strategies: []OODStrategy{ED}}); !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("uncalibrated strategy must fail with ErrNotCalibrated, got %v", err)
	}
	if _, err := bare.Infer(context.Background(), fixtureInput(m.dim), InferOptions{}); err != nil {
		t.Fatalf("score-only Infer must still work uncalibrated: %v", err)
	}
}

// TestInferReplicaReuse pins the free-list: sequential calls reuse one
// replica instead of growing without bound.
func TestInferReplicaReuse(t *testing.T) {
	m := fixtureLoadedModel(t)
	x := fixtureInput(m.dim)
	for i := 0; i < 5; i++ {
		if _, err := m.Infer(context.Background(), x, InferOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	m.clfFree.mu.Lock()
	n := len(m.clfFree.items)
	m.clfFree.mu.Unlock()
	if n != 1 {
		t.Fatalf("sequential Infer calls left %d pooled replicas, want 1", n)
	}
}

// TestInferAfterRefit: a second Fit installs a new classifier, so Infer
// must score with it (bitwise equal to the new classifier's own forward
// pass), never with a pooled replica of the first fit's network, and
// the first fit's float32 parameter set is dropped until EnableF32 runs
// again.
func TestInferAfterRefit(t *testing.T) {
	cfg := testConfig()
	cfg.ClfEpochs = 5
	m := New(cfg, 1)
	if err := m.Fit(context.Background(), testBundle(t, 1).Train); err != nil {
		t.Fatal(err)
	}
	b := testBundle(t, 2)
	if _, err := m.Infer(context.Background(), b.Test.X, InferOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := m.EnableF32(); err != nil {
		t.Fatal(err)
	}
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	res, err := m.Infer(context.Background(), b.Test.X, InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	probs := nn.SoftmaxRows(m.clf.Forward(b.Test.X))
	for i, s := range res.Scores {
		if _, want := mat.ArgMax(probs.Row(i)[:m.m]); s != want {
			t.Fatalf("row %d: Infer %v after the re-fit, the new classifier %v", i, s, want)
		}
	}
	if _, err := m.InferF32(context.Background(), b.Test.X, InferOptions{}); !errors.Is(err, ErrF32NotEnabled) {
		t.Fatalf("InferF32 after the re-fit: err = %v, want ErrF32NotEnabled", err)
	}
}
