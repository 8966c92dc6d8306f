package experiments

import (
	"context"
	"io"

	"targad/internal/core"
	"targad/internal/dataset/synth"
	"targad/internal/detector"
)

var fig6Layout = heatmaps(`alpha\contam`,
	"Fig. 6(a) — AUPRC (rows: alpha, cols: true contamination)",
	"Fig. 6(b) — AUROC (rows: alpha, cols: true contamination)")

// Fig6 reproduces the α-sensitivity matrix of Fig. 6: TargAD's AUPRC
// and AUROC on UNSW-NB15 for every candidate-selection threshold
// α ∈ {1,5,10,15,20}% (rows) against every ground-truth contamination
// rate ∈ {1,5,10,15}% (columns).
func Fig6(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	p := synth.UNSWNB15()
	alphas := []float64{0.01, 0.05, 0.10, 0.15, 0.20}
	contams := []float64{0.01, 0.05, 0.10, 0.15}
	return sweep(ctx, rc, "fig6", percents(alphas), percents(contams), func(i, j int) (detector.Factory, generator) {
		return rc.targadWith(func(c *core.Config) { c.Alpha = alphas[i] }),
			rc.bundles(p, func(o *synth.Options) { o.Contamination = contams[j] })
	}, fig6Layout, progress)
}
