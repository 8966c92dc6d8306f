package experiments

import (
	"context"
	"fmt"
	"io"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/dataset/synth"
	"targad/internal/detector"
)

// Fig5Result reproduces the weight-updating analysis of Fig. 5:
// (a) the mean weight of each instance kind among the non-target
// anomaly candidates per epoch, and (b) the final-epoch weight density
// per kind.
type Fig5Result struct {
	// MeanByEpoch[e] holds the epoch-e mean weights of
	// {normal, target, non-target} candidates.
	MeanByEpoch [][3]float64
	// Bins are the density histogram bin upper edges (10 bins on
	// [0,1]); Density[kind][bin] is the fraction of that kind's
	// candidates in the bin at the final epoch.
	Bins    []float64
	Density [3][]float64
	// Counts of each kind inside D_U^A.
	Counts [3]int
}

// Fig5 trains TargAD with weight recording on UNSW-NB15 and maps the
// candidate weights onto the hidden ground-truth kinds.
func Fig5(ctx context.Context, rc RunConfig, progress io.Writer) (*Fig5Result, error) {
	p := synth.UNSWNB15()
	b, err := rc.generateFor(p, 0, nil)
	if err != nil {
		return nil, fmt.Errorf("fig5: %w", err)
	}
	cfg := rc.targadConfig()
	cfg.RecordWeights = true
	model := core.New(cfg, rc.Seed)
	if err := model.Fit(ctx, b.Train); err != nil {
		return nil, fmt.Errorf("fig5: fit: %w", err)
	}

	cand := model.CandidateIndices()
	kinds := make([]dataset.Kind, len(cand))
	res := &Fig5Result{}
	for i, row := range cand {
		kinds[i] = b.Train.UnlabeledKind[row]
		res.Counts[int(kinds[i])]++
	}
	hist := model.WeightTrajectory()
	for _, weights := range hist {
		var sum [3]float64
		for i, w := range weights {
			sum[int(kinds[i])] += w
		}
		var mean [3]float64
		for k := 0; k < 3; k++ {
			if res.Counts[k] > 0 {
				mean[k] = sum[k] / float64(res.Counts[k])
			}
		}
		res.MeanByEpoch = append(res.MeanByEpoch, mean)
	}

	// Final-epoch density (10 equal bins over [0,1]).
	const nBins = 10
	res.Bins = make([]float64, nBins)
	for i := range res.Bins {
		res.Bins[i] = float64(i+1) / nBins
	}
	for k := range res.Density {
		res.Density[k] = make([]float64, nBins)
	}
	if len(hist) > 0 {
		final := hist[len(hist)-1]
		for i, w := range final {
			bin := int(w * nBins)
			if bin >= nBins {
				bin = nBins - 1
			}
			if bin < 0 {
				bin = 0
			}
			res.Density[int(kinds[i])][bin]++
		}
		for k := 0; k < 3; k++ {
			if res.Counts[k] > 0 {
				for bin := range res.Density[k] {
					res.Density[k][bin] /= float64(res.Counts[k])
				}
			}
		}
	}
	if progress != nil && len(res.MeanByEpoch) > 0 {
		f := res.MeanByEpoch[len(res.MeanByEpoch)-1]
		fmt.Fprintf(progress, "fig5: final mean weights normal=%.3f target=%.3f non-target=%.3f\n", f[0], f[1], f[2])
	}
	return res, nil
}

// Render writes the per-epoch means and the final density table.
func (r *Fig5Result) Render(w io.Writer) {
	fmt.Fprintf(w, "Fig. 5(a) — mean candidate weights per epoch (candidates: %d normal, %d target, %d non-target)\n\n",
		r.Counts[0], r.Counts[1], r.Counts[2])
	t := newTable("epoch", "normal", "target", "non-target")
	for e, m := range r.MeanByEpoch {
		t.addRow(fmt.Sprint(e+1), f3(m[0]), f3(m[1]), f3(m[2]))
	}
	t.render(w)

	fmt.Fprintln(w)
	fmt.Fprintln(w, "Fig. 5(b) — final-epoch weight density (fraction of each kind per bin)")
	fmt.Fprintln(w)
	t2 := newTable("weight bin", "normal", "target", "non-target")
	lo := 0.0
	for i, hi := range r.Bins {
		t2.addRow(fmt.Sprintf("[%.1f,%.1f)", lo, hi), f3(r.Density[0][i]), f3(r.Density[1][i]), f3(r.Density[2][i]))
		lo = hi
	}
	t2.render(w)
}

var weightAblationLayout = listTable("Weight-updating ablation (extension of RQ4, UNSW-NB15)", "Variant")

// WeightAblation extends the paper's RQ4 analysis (Fig. 5 shows the
// weight dynamics qualitatively) with a quantitative ablation on
// UNSW-NB15: TargAD with its weights frozen at their Eq. (5)
// initialization, and with the full Eq. (4) weight-updating
// mechanism, one row each.
func WeightAblation(ctx context.Context, rc RunConfig, progress io.Writer) (*Grid, error) {
	rows := []string{"frozen Eq.(5) weights", "full Eq.(4) updates"}
	unsw := rc.bundles(synth.UNSWNB15(), nil)
	return sweep(ctx, rc, "weight-ablation", rows, []string{""}, func(i, _ int) (detector.Factory, generator) {
		return rc.targadWith(func(c *core.Config) { c.FreezeWeights = i == 0 }), unsw
	}, weightAblationLayout, progress)
}
