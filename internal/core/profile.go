package core

import (
	"targad/internal/dataset"
	"targad/internal/monitor"
)

// profileBins is the histogram resolution of the reference profile
// captured at Fit time (see internal/monitor).
const profileBins = monitor.DefaultBins

// captureProfile records the monitoring reference over the unlabeled
// training pool: per-feature moments and histograms, the S^tar score
// histogram, and the three-way decision mix per calibrated strategy.
// It runs once at the end of a successful Fit; the profile travels
// with the saved model (persist format v2) so the serving layer can
// detect drift against exactly the distribution this model was
// trained on. Capture is best-effort: a model that cannot score (or a
// degenerate pool) simply ships without a profile and serving-time
// monitoring disables itself.
func (mo *Model) captureProfile(train *dataset.TrainSet) {
	var err error
	defer recoverToError("profile", &err) // best-effort: a panic ships no profile
	x := train.Unlabeled
	var strategies []OODStrategy
	for _, s := range OODStrategies() {
		if _, ok := mo.idThreshold[s]; ok {
			strategies = append(strategies, s)
		}
	}
	thresholds, err := mo.checkCall(nil, x.Cols, strategies)
	if err != nil {
		return
	}
	// One forRows pass writes every row's score and calibrated
	// decisions through Infer's decision tail.
	res := prepareResult(InferOptions{Strategies: strategies}, x.Rows)
	mo.forRows(rowSet{x: x}, func(i int, probs, logits []float64) {
		mo.decideRow(res, i, probs, logits, strategies, thresholds)
	})
	kinds := make(map[int][]dataset.Kind, len(strategies))
	for s, k := range res.Kinds {
		kinds[int(s)] = k
	}
	p, err := monitor.Capture(x, res.Scores, kinds, mo.NormalPrior(), profileBins)
	if err != nil {
		return
	}
	mo.profile = p
}

// Profile returns the monitoring reference captured at Fit time (or
// loaded from a v2 save file), nil when the model carries none —
// models from v1 files, or fits whose capture degenerated. Serving
// layers treat nil as "monitoring disabled".
func (mo *Model) Profile() *monitor.Profile { return mo.profile }
