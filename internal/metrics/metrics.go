// Package metrics implements the evaluation measures used throughout
// the paper: AUROC, AUPRC (average precision), ROC and PR curves, and
// confusion-matrix statistics (precision, recall, F1 with macro and
// weighted averaging) for the three-way identification experiment.
package metrics

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// ErrDegenerate reports that a ranking metric is undefined because the
// labels contain only one class.
var ErrDegenerate = errors.New("metrics: labels contain a single class")

// rankOrder returns indices sorting scores descending; ties keep input
// order (stable), which combined with the tie-aware accumulation below
// makes both AUCs tie-correct.
func rankOrder(scores []float64) []int {
	idx := make([]int, len(scores))
	for i := range idx {
		idx[i] = i
	}
	sort.SliceStable(idx, func(a, b int) bool { return scores[idx[a]] > scores[idx[b]] })
	return idx
}

func validate(scores []float64, labels []bool) (pos, neg int, err error) {
	if len(scores) != len(labels) {
		return 0, 0, fmt.Errorf("metrics: %d scores vs %d labels", len(scores), len(labels))
	}
	if len(scores) == 0 {
		return 0, 0, errors.New("metrics: empty input")
	}
	for i, s := range scores {
		if math.IsNaN(s) {
			return 0, 0, fmt.Errorf("metrics: NaN score at index %d", i)
		}
	}
	for _, l := range labels {
		if l {
			pos++
		} else {
			neg++
		}
	}
	if pos == 0 || neg == 0 {
		return pos, neg, ErrDegenerate
	}
	return pos, neg, nil
}

// AUROC returns the area under the ROC curve of scores against binary
// labels (true = positive), handling ties by assigning half credit —
// equivalent to the Mann–Whitney U statistic.
func AUROC(scores []float64, labels []bool) (float64, error) {
	pos, neg, err := validate(scores, labels)
	if err != nil {
		return 0, err
	}
	idx := rankOrder(scores)
	var auc float64
	var tp, fp int
	i := 0
	for i < len(idx) {
		j := i
		var dtp, dfp int
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			if labels[idx[j]] {
				dtp++
			} else {
				dfp++
			}
			j++
		}
		// Trapezoid over the tie block.
		auc += float64(dfp) * (float64(tp) + float64(dtp)/2)
		tp += dtp
		fp += dfp
		i = j
	}
	return auc / (float64(pos) * float64(neg)), nil
}

// AUPRC returns the area under the precision-recall curve computed as
// average precision (the step-wise integral ∑ (R_i − R_{i−1})·P_i),
// the convention used by scikit-learn's average_precision_score that
// anomaly-detection papers report.
func AUPRC(scores []float64, labels []bool) (float64, error) {
	pos, _, err := validate(scores, labels)
	if err != nil {
		return 0, err
	}
	idx := rankOrder(scores)
	var ap float64
	var tp, seen int
	i := 0
	for i < len(idx) {
		j := i
		dtp := 0
		for j < len(idx) && scores[idx[j]] == scores[idx[i]] {
			if labels[idx[j]] {
				dtp++
			}
			j++
		}
		seenNew := j
		tpNew := tp + dtp
		if dtp > 0 {
			precision := float64(tpNew) / float64(seenNew)
			ap += precision * float64(dtp) / float64(pos)
		}
		tp = tpNew
		seen = seenNew
		i = j
	}
	_ = seen
	return ap, nil
}

// PrecisionAtK returns the fraction of true positives among the k
// highest-scored instances — the "review budget" metric of the paper's
// payment-platform scenario. Ties are broken by input order; k is
// clamped to the input size.
func PrecisionAtK(scores []float64, labels []bool, k int) (float64, error) {
	if len(scores) != len(labels) {
		return 0, fmt.Errorf("metrics: %d scores vs %d labels", len(scores), len(labels))
	}
	if len(scores) == 0 || k <= 0 {
		return 0, errors.New("metrics: empty input or non-positive k")
	}
	if k > len(scores) {
		k = len(scores)
	}
	idx := rankOrder(scores)
	var tp int
	for _, i := range idx[:k] {
		if labels[i] {
			tp++
		}
	}
	return float64(tp) / float64(k), nil
}
