package core

import (
	"context"
	"math"
	"testing"

	"targad/internal/mat"
)

// The float32 tolerance contract, pinned on the committed model
// fixtures so it can never drift silently. The bounds below carry a
// wide margin over the measured deviations (~1e-7 max score deviation
// on both fixtures, zero decision flips) but are tight enough that a
// broken kernel, a wrong activation, or a parameter-conversion bug
// trips them immediately. They hold for both the assembly and the
// pure-Go micro-kernels; ci.sh runs this test under -tags noasm too.
const (
	// f32MaxScoreDev bounds max_i |S^tar_f32(x_i) − S^tar_f64(x_i)| on
	// the fixture input. Scores are probabilities in [0,1], so this is
	// an absolute bound.
	f32MaxScoreDev = 5e-6
	// f32MaxFlipRate bounds the fraction of (row, strategy) decisions
	// that differ between the two paths. The fixture rows sit away from
	// the calibrated thresholds, so no flips are tolerated.
	f32MaxFlipRate = 0.0
	// f32MaxProbDev bounds the per-class probability deviation when
	// Probs are requested.
	f32MaxProbDev = 5e-6
)

func testF32Tolerance(t *testing.T, fixturePath string) {
	m := loadFixtureF32(t, fixturePath)
	x := fixtureInput(m.dim)
	opt := InferOptions{Strategies: calibratedStrategies(m), Probs: true}
	if len(opt.Strategies) == 0 {
		t.Fatal("fixture has no calibrated strategies; tolerance test would be vacuous")
	}
	ref, err := m.Infer(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := m.InferF32(context.Background(), x, opt)
	if err != nil {
		t.Fatal(err)
	}

	var maxScoreDev float64
	for i := range ref.Scores {
		if d := math.Abs(got.Scores[i] - ref.Scores[i]); d > maxScoreDev {
			maxScoreDev = d
		}
	}
	t.Logf("%s: max |S^tar_f32 - S^tar_f64| = %.3g (kernel %s)", fixturePath, maxScoreDev, mat.KernelName())
	if maxScoreDev > f32MaxScoreDev {
		t.Fatalf("max score deviation %g exceeds pinned bound %g", maxScoreDev, f32MaxScoreDev)
	}

	var flips, total int
	for s, kinds := range ref.Kinds {
		for i := range kinds {
			total++
			if got.Kinds[s][i] != kinds[i] {
				flips++
			}
		}
	}
	rate := float64(flips) / float64(total)
	t.Logf("%s: decision flips %d/%d (rate %.3g)", fixturePath, flips, total, rate)
	if rate > f32MaxFlipRate {
		t.Fatalf("decision-flip rate %g exceeds pinned bound %g", rate, f32MaxFlipRate)
	}

	var maxProbDev float64
	for i := range ref.Probs.Data {
		if d := math.Abs(got.Probs.Data[i] - ref.Probs.Data[i]); d > maxProbDev {
			maxProbDev = d
		}
	}
	t.Logf("%s: max prob deviation = %.3g", fixturePath, maxProbDev)
	if maxProbDev > f32MaxProbDev {
		t.Fatalf("max probability deviation %g exceeds pinned bound %g", maxProbDev, f32MaxProbDev)
	}
}

func TestF32ToleranceModelV1(t *testing.T) { testF32Tolerance(t, fixtureModel) }
func TestF32ToleranceModelV2(t *testing.T) { testF32Tolerance(t, fixtureModelV2) }
