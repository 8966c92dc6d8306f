package core

import (
	"context"
	"errors"
	"math"
	"testing"
	"testing/quick"

	"targad/internal/dataset"
	"targad/internal/dataset/synth"
	"targad/internal/mat"
	"targad/internal/metrics"
	"targad/internal/rng"
)

// testConfig returns a configuration small enough for unit tests.
func testConfig() Config {
	cfg := DefaultConfig()
	cfg.K = 2
	cfg.AEEpochs = 4
	cfg.AELR = 1e-3
	cfg.ClfEpochs = 30
	cfg.ClfLR = 1e-3
	cfg.ClfHidden = []int{16}
	cfg.AEHidden = []int{12, 6}
	return cfg
}

// testBundle generates a small KDD-like dataset.
func testBundle(t *testing.T, seed int64) *dataset.Bundle {
	t.Helper()
	b, err := synth.Generate(synth.KDDCUP99(), synth.Options{
		Scale:          0.03,
		Seed:           seed,
		LabeledPerType: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestFitValidatesInput(t *testing.T) {
	m := New(testConfig(), 1)
	bad := &dataset.TrainSet{}
	if err := m.Fit(context.Background(), bad); err == nil {
		t.Fatal("invalid train set must error")
	}
}

func TestUnfittedModelErrors(t *testing.T) {
	m := New(testConfig(), 1)
	if _, err := m.Score(context.Background(), mat.New(1, 3)); err == nil {
		t.Fatal("scoring an unfitted model must error")
	}
	if _, err := m.Infer(context.Background(), mat.New(1, 3), InferOptions{Probs: true}); err == nil {
		t.Fatal("probabilities of an unfitted model must error")
	}
}

func TestFitEndToEnd(t *testing.T) {
	b := testBundle(t, 1)
	m := New(testConfig(), 1)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	if m.NumTargetTypes() != 2 {
		t.Fatalf("m = %d, want 2", m.NumTargetTypes())
	}
	if m.NumNormalClusters() != 2 {
		t.Fatalf("k = %d, want 2 (explicit)", m.NumNormalClusters())
	}
	// Candidate split covers the pool.
	total := len(m.CandidateIndices()) + len(m.normIdx)
	if total != b.Train.Unlabeled.Rows {
		t.Fatalf("candidates + normals = %d, want %d", total, b.Train.Unlabeled.Rows)
	}
	wantCand := int(math.Round(0.05 * float64(b.Train.Unlabeled.Rows)))
	if got := len(m.CandidateIndices()); got != wantCand {
		t.Fatalf("candidate count %d, want %d (alpha 5%%)", got, wantCand)
	}
	// Score must beat random ranking comfortably on this easy data.
	scores, err := m.Score(context.Background(), b.Test.X)
	if err != nil {
		t.Fatal(err)
	}
	if auprc, _ := metrics.AUPRC(scores, b.Test.TargetLabels()); auprc < 0.2 {
		t.Fatalf("test AUPRC = %v, too weak", auprc)
	}
	// Probabilities are a valid distribution over m+k classes.
	res, err := m.Infer(context.Background(), b.Test.X, InferOptions{Probs: true})
	if err != nil {
		t.Fatal(err)
	}
	probs := res.Probs
	if probs.Cols != m.NumTargetTypes()+m.NumNormalClusters() {
		t.Fatalf("probability width %d", probs.Cols)
	}
	for i := 0; i < probs.Rows; i++ {
		var s float64
		for _, p := range probs.Row(i) {
			if p < 0 || p > 1 {
				t.Fatalf("probability out of range: %v", p)
			}
			s += p
		}
		if math.Abs(s-1) > 1e-6 {
			t.Fatalf("row %d sums to %v", i, s)
		}
	}
	// Eq. (9): scores are max over the first m probabilities.
	for i, s := range scores {
		_, want := mat.ArgMax(probs.Row(i)[:m.NumTargetTypes()])
		if s != want {
			t.Fatalf("score %d = %v, want %v", i, s, want)
		}
	}
}

func TestFitDeterministicBySeed(t *testing.T) {
	b := testBundle(t, 2)
	m1 := New(testConfig(), 7)
	if err := m1.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	b2 := testBundle(t, 2)
	m2 := New(testConfig(), 7)
	if err := m2.Fit(context.Background(), b2.Train); err != nil {
		t.Fatal(err)
	}
	s1, _ := m1.Score(context.Background(), b.Test.X)
	s2, _ := m2.Score(context.Background(), b2.Test.X)
	for i := range s1 {
		if s1[i] != s2[i] {
			t.Fatal("same seed + data must yield identical scores")
		}
	}
}

func TestElbowSelectsK(t *testing.T) {
	b := testBundle(t, 3)
	cfg := testConfig()
	cfg.K = 0
	cfg.KMin = 2
	cfg.KMax = 5
	m := New(cfg, 1)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	if k := m.NumNormalClusters(); k < 2 || k > 5 {
		t.Fatalf("elbow k = %d outside [2,5]", k)
	}
}

func TestAlphaTooLargeErrors(t *testing.T) {
	b := testBundle(t, 4)
	cfg := testConfig()
	cfg.Alpha = 1.5
	m := New(cfg, 1)
	if err := m.Fit(context.Background(), b.Train); err == nil {
		t.Fatal("alpha selecting everything must error")
	}
}

func TestAblationSwitches(t *testing.T) {
	b := testBundle(t, 5)
	for _, tc := range []struct {
		name         string
		useOE, useRE bool
	}{
		{"-O-R", false, false},
		{"-O", false, true},
		{"-R", true, false},
	} {
		cfg := testConfig()
		cfg.UseOE = tc.useOE
		cfg.UseRE = tc.useRE
		m := New(cfg, 1)
		if err := m.Fit(context.Background(), b.Train); err != nil {
			t.Fatalf("variant %s: %v", tc.name, err)
		}
		if _, err := m.Score(context.Background(), b.Test.X); err != nil {
			t.Fatalf("variant %s score: %v", tc.name, err)
		}
	}
}

func TestFreezeWeightsKeepsInitialWeights(t *testing.T) {
	b := testBundle(t, 12)
	cfg := testConfig()
	cfg.RecordWeights = true
	cfg.FreezeWeights = true
	m := New(cfg, 1)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	hist := m.WeightTrajectory()
	if len(hist) < 2 {
		t.Fatal("need at least two recorded epochs")
	}
	first, last := hist[0], hist[len(hist)-1]
	for i := range first {
		if first[i] != last[i] {
			t.Fatalf("frozen weights changed at %d: %v -> %v", i, first[i], last[i])
		}
	}
}

func TestWeightUpdatingLiftsNonTargets(t *testing.T) {
	// The paper's RQ4 claim at unit-test scale: by the final epoch the
	// mean Eq. (4) weight of genuine non-target anomalies among the
	// candidates exceeds the mean weight of the normal noise.
	b, err := synth.Generate(synth.UNSWNB15(), synth.Options{
		Scale:          0.03,
		Seed:           3,
		LabeledPerType: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig()
	cfg.K = 4
	cfg.ClfEpochs = 20
	cfg.RecordWeights = true
	m := New(cfg, 1)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	final := m.FinalWeights()
	var sumNT, sumN float64
	var nNT, nN int
	for i, row := range m.CandidateIndices() {
		switch b.Train.UnlabeledKind[row] {
		case dataset.KindNonTarget:
			sumNT += final[i]
			nNT++
		case dataset.KindNormal:
			sumN += final[i]
			nN++
		}
	}
	if nNT == 0 {
		t.Skip("no non-target candidates at this scale")
	}
	meanNT := sumNT / float64(nNT)
	if nN > 0 {
		meanN := sumN / float64(nN)
		if meanNT <= meanN {
			t.Fatalf("non-target mean weight %v not above normal %v", meanNT, meanN)
		}
	}
	if meanNT < 0.5 {
		t.Fatalf("non-target mean weight %v, want >= 0.5", meanNT)
	}
}

func TestWeightRecording(t *testing.T) {
	b := testBundle(t, 6)
	cfg := testConfig()
	cfg.RecordWeights = true
	m := New(cfg, 1)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	hist := m.WeightTrajectory()
	if len(hist) != cfg.ClfEpochs {
		t.Fatalf("weight history %d epochs, want %d", len(hist), cfg.ClfEpochs)
	}
	for e, w := range hist {
		if len(w) != len(m.CandidateIndices()) {
			t.Fatalf("epoch %d weight len %d, want %d", e, len(w), len(m.CandidateIndices()))
		}
		for _, v := range w {
			if v < 0 || v > 1 || math.IsNaN(v) {
				t.Fatalf("weight out of [0,1]: %v", v)
			}
		}
	}
	if fw := m.FinalWeights(); len(fw) != len(m.CandidateIndices()) {
		t.Fatalf("final weights %d, want %d", len(fw), len(m.CandidateIndices()))
	}
}

func TestEpochHookAndLosses(t *testing.T) {
	b := testBundle(t, 7)
	cfg := testConfig()
	var hooks int
	cfg.EpochHook = func(epoch int, m *Model) { hooks++ }
	m := New(cfg, 1)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	if hooks != cfg.ClfEpochs {
		t.Fatalf("hook ran %d times, want %d", hooks, cfg.ClfEpochs)
	}
	if len(m.EpochLosses) != cfg.ClfEpochs {
		t.Fatalf("epoch losses %d, want %d", len(m.EpochLosses), cfg.ClfEpochs)
	}
	for _, l := range m.EpochLosses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			t.Fatalf("bad epoch loss %v", l)
		}
	}
}

func TestValidationSelection(t *testing.T) {
	b := testBundle(t, 8)
	cfg := testConfig()
	m := New(cfg, 1)
	m.SetValidation(b.Val)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	if _, err := m.Score(context.Background(), b.Test.X); err != nil {
		t.Fatal(err)
	}
}

func TestIdentifyReturnsValidKinds(t *testing.T) {
	b := testBundle(t, 9)
	m := New(testConfig(), 1)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	for _, s := range OODStrategies() {
		if _, ok := m.IdentifyThreshold(s); !ok {
			t.Fatalf("strategy %s not calibrated", s)
		}
		kinds, err := m.Identify(b.Test.X, s)
		if err != nil {
			t.Fatal(err)
		}
		if len(kinds) != b.Test.X.Rows {
			t.Fatalf("identify returned %d kinds", len(kinds))
		}
		for _, k := range kinds {
			if k != dataset.KindNormal && k != dataset.KindTarget && k != dataset.KindNonTarget {
				t.Fatalf("invalid kind %v", k)
			}
		}
	}
	if _, err := m.Identify(b.Test.X, OODStrategy(42)); !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("unknown strategy: err = %v, want ErrNotCalibrated", err)
	}
	delete(m.idThreshold, ES)
	if _, err := m.Identify(b.Test.X, ES); !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("uncalibrated strategy: err = %v, want ErrNotCalibrated", err)
	}
	// A threshold under an unknown strategy (a corrupt save file) is
	// still not a calibration: an error, never a panic.
	m.idThreshold[OODStrategy(7)] = 0
	if _, err := m.Identify(b.Test.X, OODStrategy(7)); !errors.Is(err, ErrNotCalibrated) {
		t.Fatalf("unknown strategy with a threshold: err = %v, want ErrNotCalibrated", err)
	}
}

func TestOODStrategyStrings(t *testing.T) {
	if MSP.String() != "MSP" || ES.String() != "ES" || ED.String() != "ED" {
		t.Fatal("strategy names wrong")
	}
	if len(OODStrategies()) != 3 {
		t.Fatal("expected 3 strategies")
	}
}

func TestNormalizeInvertedProperties(t *testing.T) {
	f := func(seed int64) bool {
		r := rng.New(seed)
		n := 20
		v := make([]float64, n)
		r.FillNormal(v, 0, 5)
		w := normalizeInverted(v)
		lo, hi := mat.MinMax(v)
		for i, x := range v {
			if w[i] < 0 || w[i] > 1 {
				return false
			}
			if x == hi && w[i] != 0 {
				return false
			}
			if x == lo && w[i] != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	// Constant input maps to all ones; empty input stays empty.
	w := normalizeInverted([]float64{3, 3, 3})
	for _, v := range w {
		if v != 1 {
			t.Fatalf("constant input weight %v, want 1", v)
		}
	}
	if len(normalizeInverted(nil)) != 0 {
		t.Fatal("empty input must stay empty")
	}
}

func TestArgsortDesc(t *testing.T) {
	idx := argsortDesc([]float64{1, 3, 2, 3})
	if idx[0] != 1 || idx[1] != 3 { // stable: first 3 before second 3
		t.Fatalf("argsortDesc = %v", idx)
	}
	if idx[2] != 2 || idx[3] != 0 {
		t.Fatalf("argsortDesc = %v", idx)
	}
}

func TestMedian(t *testing.T) {
	if m := median([]float64{5, 1, 3}); m != 3 {
		t.Fatalf("odd median = %v", m)
	}
	if m := median([]float64{4, 1, 3, 2}); m != 2.5 {
		t.Fatalf("even median = %v", m)
	}
	if m := median(nil); m != 0 {
		t.Fatalf("empty median = %v", m)
	}
}

func TestOEPseudoLabels(t *testing.T) {
	m := &Model{m: 3, k: 4}
	y := m.oeLabelsInto(nil, 2)
	if y.Rows != 2 || y.Cols != 7 {
		t.Fatalf("pseudo labels %dx%d", y.Rows, y.Cols)
	}
	for i := 0; i < 2; i++ {
		row := y.Row(i)
		for j := 0; j < 3; j++ {
			if math.Abs(row[j]-1.0/3) > 1e-12 {
				t.Fatalf("target dim %d = %v, want 1/3", j, row[j])
			}
		}
		for j := 3; j < 7; j++ {
			if row[j] != 0 {
				t.Fatalf("normal dim %d = %v, want 0", j, row[j])
			}
		}
	}
}

func TestZeroConfigFallsBackToDefaults(t *testing.T) {
	m := New(Config{}, 1)
	if m.cfg.Alpha != 0.05 || m.cfg.ClfBatch != 128 || m.cfg.AEBatch != 256 {
		t.Fatalf("zero config did not adopt defaults: %+v", m.cfg)
	}
}
