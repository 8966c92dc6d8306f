package core

import (
	"math"
	"testing"

	"targad/internal/mat"
	"targad/internal/nn"
	"targad/internal/rng"
)

// idnessOf is idness on one logit row, with the row's softmax computed
// here the way the inference body computes it.
func idnessOf(s OODStrategy, logits []float64) float64 {
	probs := make([]float64, len(logits))
	mat.Softmax(probs, logits)
	return idness(s, probs, logits)
}

func TestIdnessMSP(t *testing.T) {
	logits := []float64{2, 0, 0}
	probs := make([]float64, 3)
	mat.Softmax(probs, logits)
	_, want := mat.ArgMax(probs)
	if got := idnessOf(MSP, logits); math.Abs(got-want) > 1e-12 {
		t.Fatalf("MSP idness = %v, want %v", got, want)
	}
}

func TestIdnessES(t *testing.T) {
	logits := []float64{1, 2, 3}
	want := mat.LogSumExp(logits)
	if got := idnessOf(ES, logits); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ES idness = %v, want %v", got, want)
	}
}

func TestIdnessED(t *testing.T) {
	logits := []float64{1, 2, 3}
	want := mat.LogSumExp(logits) - 2
	if got := idnessOf(ED, logits); math.Abs(got-want) > 1e-12 {
		t.Fatalf("ED idness = %v, want %v", got, want)
	}
	// ED is shift-invariant: adding a constant to every logit must not
	// change it — the property that makes it robust to overconfidence.
	shifted := []float64{101, 102, 103}
	if got := idnessOf(ED, shifted); math.Abs(got-idnessOf(ED, logits)) > 1e-9 {
		t.Fatalf("ED not shift invariant: %v vs %v", got, idnessOf(ED, logits))
	}
}

func TestIdnessConfidenceOrdering(t *testing.T) {
	// Every strategy must score a peaked logit row as more
	// in-distribution than a uniform one.
	peaked := []float64{5, 0, 0, 0}
	uniform := []float64{1, 1, 1, 1}
	for _, s := range OODStrategies() {
		if idnessOf(s, peaked) <= idnessOf(s, uniform) {
			t.Fatalf("%s: peaked idness %v not above uniform %v", s, idnessOf(s, peaked), idnessOf(s, uniform))
		}
	}
}

func TestIdnessUnknownStrategyPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("unknown strategy must panic")
		}
	}()
	idnessOf(OODStrategy(99), []float64{1})
}

func TestOODStrategyUnknownString(t *testing.T) {
	if got := OODStrategy(7).String(); got != "OODStrategy(7)" {
		t.Fatalf("unknown strategy String = %q", got)
	}
}

// TestCalibrateIdentificationUsesLabeledLogits guards against workspace
// aliasing: MLP.Forward returns a layer-owned buffer that the next
// Forward call on the same network overwrites, so calibration must
// detach the labeled logits before forwarding the candidates. The
// expected thresholds are computed with two independent forward passes,
// each fully consumed before the other runs.
func TestCalibrateIdentificationUsesLabeledLogits(t *testing.T) {
	clf, err := nn.NewMLP(nn.MLPConfig{Dims: []int{4, 6, 3}, Hidden: nn.ReLU, Output: nn.Identity}, rng.New(17))
	if err != nil {
		t.Fatal(err)
	}
	mo := &Model{m: 1, k: 2, clf: clf, idThreshold: make(map[OODStrategy]float64)}

	labeled := mat.New(5, 4)
	rng.New(18).FillNormal(labeled.Data, 0, 2)
	cand := mat.New(9, 4) // different row count, so aliasing also reshapes
	rng.New(19).FillNormal(cand.Data, 1, 2)
	weights := make([]float64, cand.Rows)
	rng.New(20).FillUniform(weights, 0.1, 1)

	want := make(map[OODStrategy]float64)
	for _, s := range OODStrategies() {
		lLog := clf.Forward(labeled)
		lv := make([]float64, lLog.Rows)
		for i := range lv {
			lv[i] = idnessOf(s, lLog.Row(i))
		}
		cLog := clf.Forward(cand)
		var wSum, vSum float64
		for i := 0; i < cLog.Rows; i++ {
			wSum += weights[i]
			vSum += weights[i] * idnessOf(s, cLog.Row(i))
		}
		want[s] = (median(lv) + vSum/wSum) / 2
	}

	mo.calibrateIdentification(rowSet{x: labeled}, rowSet{x: cand}, weights)
	for _, s := range OODStrategies() {
		got, ok := mo.IdentifyThreshold(s)
		if !ok {
			t.Fatalf("%s: no threshold calibrated", s)
		}
		if got != want[s] {
			t.Fatalf("%s threshold = %v, want %v (labeled logits clobbered by candidate forward?)", s, got, want[s])
		}
	}
}
