package core_test

import (
	"bytes"
	"context"
	"sync"
	"testing"

	"targad/internal/core"
	"targad/internal/dataset/synth"
	"targad/internal/parallel"
)

// fitAndScore trains a small TargAD at the given worker count and
// returns the test-set scores.
func fitAndScore(t *testing.T, workers int) []float64 {
	t.Helper()
	prev := parallel.SetWorkers(workers)
	defer parallel.SetWorkers(prev)

	bundle, err := synth.Generate(synth.KDDCUP99(), synth.Options{
		Scale: 0.02, Seed: 7, LabeledPerType: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 3
	cfg.AEEpochs = 2
	cfg.ClfEpochs = 3
	cfg.AELR = 1e-3
	cfg.ClfLR = 1e-3
	m := core.New(cfg, 42)
	if err := m.Fit(context.Background(), bundle.Train); err != nil {
		t.Fatal(err)
	}
	scores, err := m.Score(context.Background(), bundle.Test.X)
	if err != nil {
		t.Fatal(err)
	}
	return scores
}

// TestFitScoreParallelSerialIdentical is the pipeline-level
// determinism guarantee: the whole Fit (k-means, per-cluster AE
// training, candidate selection, classifier training) and Score run
// must produce bitwise-identical scores whether the worker pool has 1
// worker (the serial path) or many.
func TestFitScoreParallelSerialIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("full Fit determinism check is not -short")
	}
	serial := fitAndScore(t, 1)
	for _, w := range []int{2, 4} {
		par := fitAndScore(t, w)
		if len(par) != len(serial) {
			t.Fatalf("workers=%d: %d scores, want %d", w, len(par), len(serial))
		}
		for i, s := range serial {
			if par[i] != s {
				t.Fatalf("workers=%d: score[%d] = %v, serial %v (not bitwise identical)", w, i, par[i], s)
			}
		}
	}
}

// TestScoreOnlyParallelSerialIdentical covers batch inference alone:
// one trained model scored at several worker counts. Cheap enough to
// always run (including under -short and -race smoke).
func TestScoreOnlyParallelSerialIdentical(t *testing.T) {
	bundle, err := synth.Generate(synth.KDDCUP99(), synth.Options{
		Scale: 0.015, Seed: 3, LabeledPerType: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 2
	cfg.AEEpochs = 1
	cfg.ClfEpochs = 2
	cfg.AELR = 1e-3
	cfg.ClfLR = 1e-3
	m := core.New(cfg, 5)
	if err := m.Fit(context.Background(), bundle.Train); err != nil {
		t.Fatal(err)
	}

	score := func(w int) []float64 {
		prev := parallel.SetWorkers(w)
		defer parallel.SetWorkers(prev)
		s, err := m.Score(context.Background(), bundle.Test.X)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	serial := score(1)
	for _, w := range []int{2, 4, 8} {
		par := score(w)
		for i, s := range serial {
			if par[i] != s {
				t.Fatalf("workers=%d: score[%d] = %v, serial %v", w, i, par[i], s)
			}
		}
	}
}

// TestContendedFitsSaveLikeSolo runs two Fits at once at two workers,
// so they compete for the one helper the process-wide budget allows
// and each finds it taken at unpredictable moments: some of a Fit's
// parallel calls get a helper and some run inline. Each model must
// still save byte-for-byte what a solo Fit at one worker saves.
func TestContendedFitsSaveLikeSolo(t *testing.T) {
	bundle, err := synth.Generate(synth.KDDCUP99(), synth.Options{
		Scale: 0.02, Seed: 7, LabeledPerType: 15,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := core.DefaultConfig()
	cfg.K = 3
	cfg.AEEpochs = 2
	cfg.ClfEpochs = 3
	cfg.AELR = 1e-3
	cfg.ClfLR = 1e-3
	fitBytes := func(seed int64) ([]byte, error) {
		m := core.New(cfg, seed)
		if err := m.Fit(context.Background(), bundle.Train); err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		err := m.Save(&buf)
		return buf.Bytes(), err
	}
	seeds := []int64{42, 43}

	prev := parallel.SetWorkers(1)
	defer parallel.SetWorkers(prev)
	want := make([][]byte, len(seeds))
	for i, s := range seeds {
		if want[i], err = fitBytes(s); err != nil {
			t.Fatal(err)
		}
	}

	parallel.SetWorkers(2)
	got := make([][]byte, len(seeds))
	errs := make([]error, len(seeds))
	var wg sync.WaitGroup
	for i, s := range seeds {
		wg.Add(1)
		go func(i int, s int64) {
			defer wg.Done()
			got[i], errs[i] = fitBytes(s)
		}(i, s)
	}
	wg.Wait()
	for i, s := range seeds {
		if errs[i] != nil {
			t.Fatalf("seed %d: contended fit: %v", s, errs[i])
		}
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("seed %d: contended fit at 2 workers saved %d bytes unlike the solo fit at 1 worker (%d bytes)", s, len(got[i]), len(want[i]))
		}
	}
}
