package experiments

import (
	"context"
	"errors"
	"testing"

	"targad/internal/dataset"
	"targad/internal/dataset/synth"
	"targad/internal/detector"
	"targad/internal/mat"
)

// stubDetector returns fixed scores, optionally failing.
type stubDetector struct {
	fitErr   error
	scoreErr error
	val      *dataset.EvalSet
}

func (s *stubDetector) Name() string { return "stub" }

func (s *stubDetector) Fit(ctx context.Context, train *dataset.TrainSet) error { return s.fitErr }

func (s *stubDetector) Score(ctx context.Context, x *mat.Matrix) ([]float64, error) {
	if s.scoreErr != nil {
		return nil, s.scoreErr
	}
	out := make([]float64, x.Rows)
	for i := range out {
		out[i] = float64(i)
	}
	return out, nil
}

func (s *stubDetector) SetValidation(v *dataset.EvalSet) { s.val = v }

func stubBundle(t *testing.T) *dataset.Bundle {
	t.Helper()
	b, err := synth.Generate(synth.KDDCUP99(), synth.Options{Scale: 0.01, Seed: 1, LabeledPerType: 4})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestEvalDetectorPassesValidation(t *testing.T) {
	b := stubBundle(t)
	stub := &stubDetector{}
	factory := func(seed int64) detector.Detector { return stub }
	if _, _, err := evalDetector(context.Background(), factory, 1, b); err != nil {
		t.Fatal(err)
	}
	if stub.val == nil {
		t.Fatal("validation split must be handed to ValidationAware detectors")
	}
}

func TestEvalDetectorPropagatesErrors(t *testing.T) {
	b := stubBundle(t)
	fitErr := errors.New("boom-fit")
	factory := func(seed int64) detector.Detector { return &stubDetector{fitErr: fitErr} }
	if _, _, err := evalDetector(context.Background(), factory, 1, b); !errors.Is(err, fitErr) {
		t.Fatalf("fit error not propagated: %v", err)
	}
	scoreErr := errors.New("boom-score")
	factory2 := func(seed int64) detector.Detector { return &stubDetector{scoreErr: scoreErr} }
	if _, _, err := evalDetector(context.Background(), factory2, 1, b); !errors.Is(err, scoreErr) {
		t.Fatalf("score error not propagated: %v", err)
	}
}

// stubGen returns a generator that hands out b for every run.
func stubGen(b *dataset.Bundle) generator {
	return func(run int) (*dataset.Bundle, error) { return b, nil }
}

func TestEvalCellAggregates(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 3
	factory := func(seed int64) detector.Detector { return &stubDetector{} }
	prc, roc, resumed, err := evalCell(context.Background(), rc, nil, "k", factory, stubGen(b))
	if err != nil || resumed != 0 {
		t.Fatalf("resumed=%d err=%v; want a fresh cell", resumed, err)
	}
	// Identical runs → (numerically) zero std.
	if prc.Std > 1e-9 || roc.Std > 1e-9 {
		t.Fatalf("identical runs must have ~zero std: %v %v", prc, roc)
	}
	if prc.Mean < 0 || prc.Mean > 1 || roc.Mean < 0 || roc.Mean > 1 {
		t.Fatalf("aggregates out of range: %v %v", prc, roc)
	}
}

func TestEvalCellPropagatesGenError(t *testing.T) {
	rc := microConfig()
	genErr := errors.New("boom-gen")
	factory := func(seed int64) detector.Detector { return &stubDetector{} }
	if _, _, _, err := evalCell(context.Background(), rc, nil, "k", factory, func(run int) (*dataset.Bundle, error) { return nil, genErr }); !errors.Is(err, genErr) {
		t.Fatalf("generator error not propagated: %v", err)
	}
}
