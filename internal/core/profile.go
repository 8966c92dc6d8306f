package core

import (
	"targad/internal/dataset"
	"targad/internal/mat"
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
	// One chunked pass computes the scores and every calibrated
	// decision mix; each chunk's result recycles one InferResult.
	scores := make([]float64, x.Rows)
	kinds := make(map[int][]dataset.Kind, len(strategies))
	for _, s := range strategies {
		kinds[int(s)] = make([]dataset.Kind, x.Rows)
	}
	opt := InferOptions{Strategies: strategies, Reuse: &InferResult{}}
	mo.forChunks(rowSet{x: x}, func(lo int, chunk *mat.Matrix) {
		res := mo.infer(mo.clf, chunk, opt, thresholds)
		copy(scores[lo:], res.Scores)
		for _, s := range strategies {
			copy(kinds[int(s)][lo:], res.Kinds[s])
		}
	})
	prior := float64(mo.k) / float64(mo.m+mo.k)
	p, err := monitor.Capture(x, scores, kinds, prior, profileBins)
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
