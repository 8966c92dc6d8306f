package metrics

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"targad/internal/rng"
)

func TestAUROCPerfectAndWorst(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if v, err := AUROC(scores, labels); err != nil || v != 1 {
		t.Fatalf("perfect AUROC = %v, %v", v, err)
	}
	inv := []bool{false, false, true, true}
	if v, _ := AUROC(scores, inv); v != 0 {
		t.Fatalf("worst AUROC = %v", v)
	}
}

func TestAUROCRandomIsHalf(t *testing.T) {
	r := rng.New(1)
	n := 5000
	scores := make([]float64, n)
	labels := make([]bool, n)
	for i := range scores {
		scores[i] = r.Float64()
		labels[i] = r.Bernoulli(0.3)
	}
	v, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.5) > 0.03 {
		t.Fatalf("random AUROC = %v, want ~0.5", v)
	}
}

func TestAUROCTiesHalfCredit(t *testing.T) {
	// All scores equal: AUROC must be exactly 0.5.
	scores := []float64{1, 1, 1, 1}
	labels := []bool{true, false, true, false}
	v, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0.5 {
		t.Fatalf("all-ties AUROC = %v, want 0.5", v)
	}
}

func TestAUROCKnownValue(t *testing.T) {
	// Hand-computed: pairs (pos, neg) ranked correctly: scores
	// pos{0.8, 0.4}, neg{0.6, 0.2}. Pairs: (0.8>0.6)+(0.8>0.2)+
	// (0.4<0.6=0)+(0.4>0.2) = 3 of 4 → 0.75.
	scores := []float64{0.8, 0.4, 0.6, 0.2}
	labels := []bool{true, true, false, false}
	v, err := AUROC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0.75 {
		t.Fatalf("AUROC = %v, want 0.75", v)
	}
}

func TestAUPRCPerfect(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.2, 0.1}
	labels := []bool{true, true, false, false}
	if v, err := AUPRC(scores, labels); err != nil || v != 1 {
		t.Fatalf("perfect AUPRC = %v, %v", v, err)
	}
}

func TestAUPRCKnownValue(t *testing.T) {
	// Ranking: pos, neg, pos, neg. AP = (1/2)·(1·1 + (2/3)·1)
	// = 0.5·(1 + 0.6667) = 0.8333…
	scores := []float64{0.9, 0.8, 0.7, 0.6}
	labels := []bool{true, false, true, false}
	v, err := AUPRC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	want := (1.0 + 2.0/3.0) / 2
	if math.Abs(v-want) > 1e-12 {
		t.Fatalf("AUPRC = %v, want %v", v, want)
	}
}

func TestAUPRCBaselineEqualsPrevalence(t *testing.T) {
	// With all scores tied, AP equals the positive prevalence.
	scores := make([]float64, 1000)
	labels := make([]bool, 1000)
	for i := range labels {
		labels[i] = i < 200
	}
	v, err := AUPRC(scores, labels)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(v-0.2) > 1e-12 {
		t.Fatalf("tied AUPRC = %v, want 0.2", v)
	}
}

func TestRankMetricsMonotoneInvariance(t *testing.T) {
	r := rng.New(2)
	f := func(seed int64) bool {
		rr := rng.New(seed)
		n := 50
		scores := make([]float64, n)
		labels := make([]bool, n)
		pos := 0
		for i := range scores {
			scores[i] = rr.Float64()
			labels[i] = rr.Bernoulli(0.4)
			if labels[i] {
				pos++
			}
		}
		if pos == 0 || pos == n {
			return true // degenerate; skip
		}
		transformed := make([]float64, n)
		for i, s := range scores {
			transformed[i] = math.Exp(3*s) + 7 // strictly monotone
		}
		a1, err1 := AUROC(scores, labels)
		a2, err2 := AUROC(transformed, labels)
		p1, err3 := AUPRC(scores, labels)
		p2, err4 := AUPRC(transformed, labels)
		if err1 != nil || err2 != nil || err3 != nil || err4 != nil {
			return false
		}
		return math.Abs(a1-a2) < 1e-12 && math.Abs(p1-p2) < 1e-12
	}
	cfg := &quick.Config{MaxCount: 30, Rand: nil}
	_ = r
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestMetricsBounds(t *testing.T) {
	f := func(seed int64) bool {
		rr := rng.New(seed)
		n := 30
		scores := make([]float64, n)
		labels := make([]bool, n)
		pos := 0
		for i := range scores {
			scores[i] = rr.Normal(0, 10)
			labels[i] = rr.Bernoulli(0.5)
			if labels[i] {
				pos++
			}
		}
		if pos == 0 || pos == n {
			return true
		}
		a, err := AUROC(scores, labels)
		if err != nil || a < 0 || a > 1 {
			return false
		}
		p, err := AUPRC(scores, labels)
		if err != nil || p < 0 || p > 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDegenerateInputs(t *testing.T) {
	if _, err := AUROC([]float64{1, 2}, []bool{true, true}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("single-class AUROC error = %v", err)
	}
	if _, err := AUPRC([]float64{1, 2}, []bool{false, false}); !errors.Is(err, ErrDegenerate) {
		t.Fatalf("single-class AUPRC error = %v", err)
	}
	if _, err := AUROC(nil, nil); err == nil {
		t.Fatal("empty input must error")
	}
	if _, err := AUROC([]float64{1}, []bool{true, false}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := AUROC([]float64{math.NaN(), 1}, []bool{true, false}); err == nil {
		t.Fatal("NaN score must error")
	}
}

func TestPrecisionAtK(t *testing.T) {
	scores := []float64{0.9, 0.8, 0.7, 0.6}
	labels := []bool{true, false, true, true}
	if p, err := PrecisionAtK(scores, labels, 2); err != nil || p != 0.5 {
		t.Fatalf("P@2 = %v, %v", p, err)
	}
	if p, _ := PrecisionAtK(scores, labels, 3); math.Abs(p-2.0/3) > 1e-12 {
		t.Fatalf("P@3 = %v", p)
	}
	// k beyond n clamps to the full prevalence.
	if p, _ := PrecisionAtK(scores, labels, 99); p != 0.75 {
		t.Fatalf("P@99 = %v", p)
	}
	if _, err := PrecisionAtK(scores, labels, 0); err == nil {
		t.Fatal("k=0 must error")
	}
	if _, err := PrecisionAtK(scores, labels[:2], 1); err == nil {
		t.Fatal("length mismatch must error")
	}
}

func TestConfusionReport(t *testing.T) {
	// 3 classes; hand-verified counts.
	actual := []int{0, 0, 0, 1, 1, 2, 2, 2, 2, 2}
	pred := []int{0, 0, 1, 1, 1, 2, 2, 2, 0, 1}
	conf, err := NewConfusion([]string{"a", "b", "c"}, actual, pred)
	if err != nil {
		t.Fatal(err)
	}
	rep := conf.Report()
	// class a: tp=2, predicted a = 3 → precision 2/3; support 3 → recall 2/3.
	if math.Abs(rep.PerClass[0].Precision-2.0/3) > 1e-12 {
		t.Fatalf("a precision = %v", rep.PerClass[0].Precision)
	}
	if math.Abs(rep.PerClass[0].Recall-2.0/3) > 1e-12 {
		t.Fatalf("a recall = %v", rep.PerClass[0].Recall)
	}
	// class b: tp=2, predicted b = 4 → precision 0.5; support 2 → recall 1.
	if rep.PerClass[1].Precision != 0.5 || rep.PerClass[1].Recall != 1 {
		t.Fatalf("b report = %+v", rep.PerClass[1])
	}
	// class c: tp=3, predicted c = 3 → precision 1; support 5 → recall 0.6.
	if rep.PerClass[2].Precision != 1 || math.Abs(rep.PerClass[2].Recall-0.6) > 1e-12 {
		t.Fatalf("c report = %+v", rep.PerClass[2])
	}
	if math.Abs(rep.Accuracy-0.7) > 1e-12 {
		t.Fatalf("accuracy = %v", rep.Accuracy)
	}
	// Weighted recall equals accuracy for complete confusion matrices.
	if math.Abs(rep.WeightedAvg.Recall-rep.Accuracy) > 1e-12 {
		t.Fatalf("weighted recall %v != accuracy %v", rep.WeightedAvg.Recall, rep.Accuracy)
	}
}

func TestConfusionValidation(t *testing.T) {
	if _, err := NewConfusion([]string{"a"}, []int{0}, []int{0, 0}); err == nil {
		t.Fatal("length mismatch must error")
	}
	if _, err := NewConfusion([]string{"a"}, []int{1}, []int{0}); err == nil {
		t.Fatal("out-of-range class must error")
	}
}

func TestConfusionZeroDivision(t *testing.T) {
	// Class b never predicted and never actual: all its stats are 0,
	// no NaNs anywhere.
	conf, err := NewConfusion([]string{"a", "b"}, []int{0, 0}, []int{0, 0})
	if err != nil {
		t.Fatal(err)
	}
	rep := conf.Report()
	for _, c := range rep.PerClass {
		if math.IsNaN(c.Precision) || math.IsNaN(c.Recall) || math.IsNaN(c.F1) {
			t.Fatalf("NaN in report %+v", c)
		}
	}
}

func TestMeanStd(t *testing.T) {
	mean, std := MeanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if mean != 5 || std != 2 {
		t.Fatalf("MeanStd = %v, %v", mean, std)
	}
	if m, s := MeanStd(nil); m != 0 || s != 0 {
		t.Fatal("empty MeanStd must be zero")
	}
}
