package experiments

import (
	"context"
	"fmt"
	"io"

	"targad/internal/core"
	"targad/internal/dataset/synth"
	"targad/internal/metrics"
)

// Table4Result reproduces Table IV: three-way identification of
// normal instances, target anomalies and non-target anomalies with
// the MSP, ES and ED strategies, reported as per-class precision,
// recall and F1 plus macro and weighted averages.
type Table4Result struct {
	Strategies []string
	Reports    []*metrics.Report
}

// Table4 trains TargAD once, on run 0's UNSW-NB15 bundle, and
// evaluates each OOD strategy's three-way classification on that one
// model (the paper reports a single confusion-matrix breakdown);
// rc.Runs does not apply.
func Table4(ctx context.Context, rc RunConfig, progress io.Writer) (*Table4Result, error) {
	p := synth.UNSWNB15()
	b, err := rc.generateFor(p, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("table4: %w", err)
	}
	model := core.New(rc.targadConfig(), rc.Seed)
	model.SetValidation(b.Val)
	if err := model.Fit(ctx, b.Train); err != nil {
		return nil, fmt.Errorf("table4: fit: %w", err)
	}

	actual := make([]int, len(b.Test.Kind))
	for i, k := range b.Test.Kind {
		actual[i] = int(k)
	}
	classes := []string{"normal instances", "target anomalies", "non-target anomalies"}
	res := &Table4Result{}
	for _, s := range core.OODStrategies() {
		kinds, err := model.Identify(b.Test.X, s)
		if err != nil {
			return nil, fmt.Errorf("table4: identify %s: %w", s, err)
		}
		pred := make([]int, len(kinds))
		for i, k := range kinds {
			pred[i] = int(k)
		}
		conf, err := metrics.NewConfusion(classes, actual, pred)
		if err != nil {
			return nil, fmt.Errorf("table4: confusion %s: %w", s, err)
		}
		rep := conf.Report()
		res.Strategies = append(res.Strategies, s.String())
		res.Reports = append(res.Reports, rep)
		if progress != nil {
			fmt.Fprintf(progress, "table4: %s macroF1=%.3f weightedF1=%.3f\n", s, rep.MacroAvg.F1, rep.WeightedAvg.F1)
		}
	}
	return res, nil
}

// Render writes one Precision/Recall/F1 block per strategy.
func (r *Table4Result) Render(w io.Writer) {
	fmt.Fprintln(w, "Table IV — three-way identification with MSP / ES / ED strategies (UNSW-NB15)")
	for i, s := range r.Strategies {
		rep := r.Reports[i]
		fmt.Fprintf(w, "\nStrategy: %s\n", s)
		t := newTable("class", "Precision", "Recall", "F1-Score", "support")
		for _, c := range rep.PerClass {
			t.addRow(c.Class, f3(c.Precision), f3(c.Recall), f3(c.F1), fmt.Sprint(c.Support))
		}
		t.addRow(rep.MacroAvg.Class, f3(rep.MacroAvg.Precision), f3(rep.MacroAvg.Recall), f3(rep.MacroAvg.F1), fmt.Sprint(rep.MacroAvg.Support))
		t.addRow(rep.WeightedAvg.Class, f3(rep.WeightedAvg.Precision), f3(rep.WeightedAvg.Recall), f3(rep.WeightedAvg.F1), fmt.Sprint(rep.WeightedAvg.Support))
		t.render(w)
	}
}
