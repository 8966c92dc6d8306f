package experiments

import (
	"context"
	"fmt"
	"io"

	"targad/internal/dataset/synth"
	"targad/internal/detector"
)

// fig4Sweep evaluates the semi-supervised model roster (rows) on
// UNSW-NB15 across one robustness sweep's settings (columns), where
// mutate(j, o) adapts the generation options for setting j. It
// serves Fig. 4(a–d).
func fig4Sweep(ctx context.Context, rc RunConfig, title string, settings []string, mutate func(j int, o *synth.Options), progress io.Writer) (*Grid, error) {
	p := synth.UNSWNB15()
	models := SemiSupervisedModels(rc)
	return sweep(ctx, rc, title, modelNames(models), settings, func(i, j int) (detector.Factory, generator) {
		return models[i].New, rc.bundles(p, func(o *synth.Options) { mutate(j, o) })
	}, fig4Layout(title), progress)
}

// fig4Layout writes a sweep as a model × setting table of AUPRC.
func fig4Layout(title string) layout {
	return auprcTable(title+" — AUPRC per model and setting (UNSW-NB15)", "Model")
}

// Fig4a varies how many of UNSW-NB15's four non-target types appear
// in training; the testing data always contains all four, so the
// withheld types are novel at test time (0–3 new types).
func Fig4a(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	// The paper's four settings: 4 classes (0 new), 3 (Fuzzers,
	// Analysis, Reconnaissance), 2 (Analysis, Reconnaissance),
	// 1 (Reconnaissance).
	trainSets := [][]string{
		{"Fuzzers", "Analysis", "Exploits", "Reconnaissance"},
		{"Fuzzers", "Analysis", "Reconnaissance"},
		{"Analysis", "Reconnaissance"},
		{"Reconnaissance"},
	}
	settings := []string{"0 new types", "1 new type", "2 new types", "3 new types"}
	return fig4Sweep(ctx, rc, "fig4a", settings, func(i int, o *synth.Options) {
		o.TrainNonTargetTypes = trainSets[i]
	}, progress)
}

// Fig4b varies the number m of target anomaly classes from 1 to 6
// over UNSW-NB15's seven anomaly types; the remaining types are
// non-target.
func Fig4b(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	order := []string{"Generic", "Backdoor", "DoS", "Fuzzers", "Analysis", "Exploits", "Reconnaissance"}
	settings := make([]string, 6)
	for i := range settings {
		settings[i] = fmt.Sprintf("m=%d", i+1)
	}
	return fig4Sweep(ctx, rc, "fig4b", settings, func(i int, o *synth.Options) {
		o.TargetTypes = order[:i+1]
	}, progress)
}

// Fig4c varies the number of labeled target anomalies per type
// (paper: {20, 60, 100}), at 5% contamination. The counts scale with
// rc.Scale so the labeled/unlabeled ratio matches the paper's.
func Fig4c(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	counts := []int{20, 60, 100}
	settings := make([]string, len(counts))
	scaledCounts := make([]int, len(counts))
	for i, c := range counts {
		settings[i] = fmt.Sprintf("%d labeled/type", c)
		sc := int(float64(c)*rc.Scale + 0.5)
		if sc < 2 {
			sc = 2
		}
		scaledCounts[i] = sc
	}
	return fig4Sweep(ctx, rc, "fig4c", settings, func(i int, o *synth.Options) {
		o.LabeledPerType = scaledCounts[i]
	}, progress)
}

// Fig4d varies the anomaly contamination rate of the unlabeled pool
// (paper: {3, 5, 7, 9}%).
func Fig4d(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	rates := []float64{0.03, 0.05, 0.07, 0.09}
	return fig4Sweep(ctx, rc, "fig4d", percents(rates), func(i int, o *synth.Options) {
		o.Contamination = rates[i]
	}, progress)
}
