package experiments

import (
	"bytes"
	"context"
	"strings"
	"testing"
)

// microConfig is tuned so the whole experiment suite stays unit-test
// cheap while exercising every code path.
func microConfig() RunConfig {
	return RunConfig{
		Scale:          0.012,
		Runs:           1,
		Seed:           1,
		AEEpochs:       2,
		ClfEpochs:      4,
		AELR:           1e-3,
		ClfLR:          1e-3,
		LabeledPerType: 8,
	}
}

func TestPresets(t *testing.T) {
	fast := Fast()
	if fast.Scale <= 0 || fast.Runs < 1 {
		t.Fatalf("bad Fast preset: %+v", fast)
	}
	full := Full()
	if full.Scale != 1 || full.Runs != 5 {
		t.Fatalf("Full preset must match the paper: %+v", full)
	}
	if full.ClfLR != 1e-5 || full.AELR != 1e-4 {
		t.Fatalf("Full preset must use the paper's learning rates: %+v", full)
	}
}

func TestModelsRoster(t *testing.T) {
	rc := microConfig()
	models := Models(rc)
	if len(models) != 12 {
		t.Fatalf("expected 12 models (11 baselines + TargAD), got %d", len(models))
	}
	if models[len(models)-1].Name != "TargAD" {
		t.Fatalf("TargAD must be the last row, got %s", models[len(models)-1].Name)
	}
	semi := SemiSupervisedModels(rc)
	if len(semi) != 10 {
		t.Fatalf("expected 10 semi-supervised models, got %d", len(semi))
	}
	for _, m := range semi {
		if m.Name == "iForest" || m.Name == "REPEN" {
			t.Fatalf("%s is unsupervised, not in the Fig. 4 roster", m.Name)
		}
	}
	if _, ok := ModelByName(rc, "DevNet"); !ok {
		t.Fatal("ModelByName(DevNet) failed")
	}
	if _, ok := ModelByName(rc, "nope"); ok {
		t.Fatal("unknown model resolved")
	}
}

func TestCellString(t *testing.T) {
	c := Cell{Mean: 0.8042, Std: 0.0011}
	if got := c.String(); got != "0.804±0.001" {
		t.Fatalf("Cell.String = %q", got)
	}
}

func TestTable1(t *testing.T) {
	res, err := Table1(microConfig())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("expected 4 datasets, got %d", len(res.Rows))
	}
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r.Dataset] = true
		if r.Unlabeled <= 0 || r.TestT <= 0 {
			t.Fatalf("degenerate row %+v", r)
		}
	}
	for _, want := range []string{"UNSW-NB15", "KDDCUP99", "NSL-KDD", "SQB"} {
		if !names[want] {
			t.Fatalf("missing dataset %s", want)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "UNSW-NB15") {
		t.Fatal("render must contain dataset names")
	}
}

func TestTable3Ablation(t *testing.T) {
	res, err := Table3(context.Background(), microConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 || res.Rows[3] != "TargAD" {
		t.Fatalf("variants = %v", res.Rows)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "TargAD_-O-R") {
		t.Fatal("render must list ablated variants")
	}
}

func TestTable4OOD(t *testing.T) {
	res, err := Table4(context.Background(), microConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Strategies) != 3 {
		t.Fatalf("expected MSP/ES/ED, got %v", res.Strategies)
	}
	for i, rep := range res.Reports {
		if len(rep.PerClass) != 3 {
			t.Fatalf("strategy %s: %d classes", res.Strategies[i], len(rep.PerClass))
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"MSP", "ES", "ED", "macro avg", "weighted avg"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFig5Weights(t *testing.T) {
	res, err := Fig5(context.Background(), microConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.MeanByEpoch) != microConfig().ClfEpochs {
		t.Fatalf("mean-by-epoch has %d entries", len(res.MeanByEpoch))
	}
	if res.Counts[0]+res.Counts[1]+res.Counts[2] == 0 {
		t.Fatal("no candidates analyzed")
	}
	// Densities per kind sum to ~1 (or 0 when the kind is absent).
	for k := 0; k < 3; k++ {
		var sum float64
		for _, v := range res.Density[k] {
			sum += v
		}
		if res.Counts[k] > 0 && (sum < 0.999 || sum > 1.001) {
			t.Fatalf("kind %d density sums to %v", k, sum)
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "weight bin") {
		t.Fatal("render missing density table")
	}
}

func TestFig7Eta(t *testing.T) {
	rc := microConfig()
	res, err := Fig7Eta(context.Background(), rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 6 || len(res.AUPRC) != 6 {
		t.Fatalf("eta sweep size wrong: %d", len(res.Rows))
	}
	if res.Rows[0] != "0" {
		t.Fatal("sweep must include eta = 0")
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "eta") {
		t.Fatal("render missing header")
	}
}

func TestFig3Convergence(t *testing.T) {
	rc := microConfig()
	res, err := Fig3(context.Background(), rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loss) != rc.ClfEpochs {
		t.Fatalf("loss curve has %d epochs, want %d", len(res.Loss), rc.ClfEpochs)
	}
	if len(res.Order) != 4 { // TargAD + 3 baselines
		t.Fatalf("series order = %v", res.Order)
	}
	if got := len(res.Series["TargAD"]); got != rc.ClfEpochs {
		t.Fatalf("TargAD series has %d points", got)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	out := buf.String()
	for _, want := range []string{"TargAD", "DevNet", "DeepSAD", "FEAWAD", "loss"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q", want)
		}
	}
}

func TestFig4aSettings(t *testing.T) {
	// Use a pruned roster via direct sweep call to keep runtime down:
	// the full Fig4a is exercised by the benchmark harness.
	rc := microConfig()
	rc.ModelFilter = []string{"DevNet"} // TargAD is always retained
	res, err := Fig4a(context.Background(), rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Cols) != 4 {
		t.Fatalf("fig4a settings = %v", res.Cols)
	}
	if res.Cols[0] != "0 new types" || res.Cols[3] != "3 new types" {
		t.Fatalf("fig4a settings = %v", res.Cols)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "TargAD") {
		t.Fatal("render missing TargAD row")
	}
}

func TestTable2TrimmedRoster(t *testing.T) {
	rc := microConfig()
	rc.ModelFilter = []string{"iForest"}
	res, err := Table2(context.Background(), rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // iForest + TargAD
		t.Fatalf("models = %v", res.Rows)
	}
	if len(res.Cols) != 4 {
		t.Fatalf("datasets = %v", res.Cols)
	}
	for mi := range res.Rows {
		for pi := range res.Cols {
			c := res.AUPRC[mi][pi]
			if c.Mean < 0 || c.Mean > 1 {
				t.Fatalf("AUPRC cell out of range: %+v", c)
			}
		}
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "AUROC") {
		t.Fatal("render missing AUROC block")
	}
}

func TestFig6Matrix(t *testing.T) {
	rc := microConfig()
	res, err := Fig6(context.Background(), rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 || len(res.Cols) != 4 {
		t.Fatalf("grid %dx%d", len(res.Rows), len(res.Cols))
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "alpha") {
		t.Fatal("render missing alpha axis")
	}
}

func TestWeightAblation(t *testing.T) {
	res, err := WeightAblation(context.Background(), microConfig(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("variants = %v", res.Rows)
	}
	var buf bytes.Buffer
	res.Render(&buf)
	if !strings.Contains(buf.String(), "Eq.(4)") {
		t.Fatal("render missing variant names")
	}
}

func TestRenderTableAlignment(t *testing.T) {
	tb := newTable("a", "bbbb")
	tb.addRow("xxxxx", "y")
	var buf bytes.Buffer
	tb.render(&buf)
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) != 3 {
		t.Fatalf("expected header+separator+row, got %d lines", len(lines))
	}
	if len(lines[1]) < len("a  bbbb") {
		t.Fatalf("separator too short: %q", lines[1])
	}
}
