package experiments

import (
	"context"
	"io"

	"targad/internal/core"
	"targad/internal/dataset/synth"
	"targad/internal/detector"
)

var (
	table2Layout = metricBlocks("Table II — AUPRC and AUROC (mean ± std) of TargAD and the eleven baselines", "Models")
	table3Layout = listTable("Table III — ablation of L_OE and L_RE on UNSW-NB15", "Variant")
)

// Table2 reproduces Table II: AUPRC and AUROC (mean ± std over
// rc.Runs) for every model (rows) on every dataset (columns).
// progress, when non-nil, receives a line per completed cell. A
// failing detector degrades to an error cell while the rest of the
// grid completes.
func Table2(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	profiles := synth.AllProfiles()
	models := Models(rc)
	datasets := make([]string, len(profiles))
	for i, p := range profiles {
		datasets[i] = p.Name
	}
	return sweep(ctx, rc, "table2", modelNames(models), datasets, func(i, j int) (detector.Factory, generator) {
		return models[i].New, rc.bundles(profiles[j], nil)
	}, table2Layout, progress)
}

// Table3 reproduces Table III: the ablation of L_OE and L_RE on the
// UNSW-NB15 dataset, one row per TargAD variant.
func Table3(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	variants := []struct {
		name         string
		useOE, useRE bool
	}{
		{"TargAD_-O-R", false, false},
		{"TargAD_-O", false, true},
		{"TargAD_-R", true, false},
		{"TargAD", true, true},
	}
	rows := make([]string, len(variants))
	for i, v := range variants {
		rows[i] = v.name
	}
	unsw := rc.bundles(synth.UNSWNB15(), nil)
	return sweep(ctx, rc, "table3", rows, []string{""}, func(i, _ int) (detector.Factory, generator) {
		v := variants[i]
		return rc.targadWith(func(c *core.Config) { c.UseOE, c.UseRE = v.useOE, v.useRE }), unsw
	}, table3Layout, progress)
}
