package experiments

import (
	"context"
	"io"

	"targad/internal/core"
	"targad/internal/dataset/synth"
	"targad/internal/detector"
)

var (
	fig7aLayout  = listTable("Fig. 7(a) — sensitivity to eta in L_AE (UNSW-NB15)", "eta")
	fig7bcLayout = heatmaps(`l1\l2`,
		"Fig. 7(b) — AUPRC over lambda1 (rows) x lambda2 (cols), UNSW-NB15",
		"Fig. 7(c) — AUROC over lambda1 (rows) x lambda2 (cols), UNSW-NB15")
)

// Fig7Eta reproduces Fig. 7(a): TargAD's sensitivity to the
// autoencoder trade-off η ∈ {0, 0.01, 0.1, 1, 10, 100} on UNSW-NB15,
// one row per η.
func Fig7Eta(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	etas := []float64{0, 0.01, 0.1, 1, 10, 100}
	unsw := rc.bundles(synth.UNSWNB15(), nil)
	return sweep(ctx, rc, "fig7a", numbers(etas), []string{""}, func(i, _ int) (detector.Factory, generator) {
		return rc.targadWith(func(c *core.Config) { c.Eta = etas[i] }), unsw
	}, fig7aLayout, progress)
}

// Fig7Lambda reproduces Fig. 7(b,c): TargAD's AUPRC and AUROC on
// UNSW-NB15 over the grid λ₁ (rows) × λ₂ (columns), both in
// {0.01, 0.1, 1, 2, 5, 10}, with η = 1.
func Fig7Lambda(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	lambdas := []float64{0.01, 0.1, 1, 2, 5, 10}
	unsw := rc.bundles(synth.UNSWNB15(), nil)
	return sweep(ctx, rc, "fig7bc", numbers(lambdas), numbers(lambdas), func(i, j int) (detector.Factory, generator) {
		return rc.targadWith(func(c *core.Config) { c.Lambda1, c.Lambda2 = lambdas[i], lambdas[j] }), unsw
	}, fig7bcLayout, progress)
}
