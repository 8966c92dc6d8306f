package core

import (
	"fmt"

	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/metrics"
)

// OODStrategy selects how Identify splits anomalies into target vs
// non-target (Section III-C / Table IV). Every strategy is reduced to
// an "ID-ness" score — larger means more in-distribution, i.e. more
// likely a known (target) anomaly type when the instance is anomalous.
type OODStrategy int

// The three strategies the paper evaluates.
const (
	// MSP uses the maximum softmax probability (Hendrycks & Gimpel).
	MSP OODStrategy = iota
	// ES uses the negative free energy −E(x) = logsumexp(logits)
	// (Liu et al.).
	ES
	// ED uses the energy discrepancy logsumexp(logits) − mean(logits),
	// which keeps the energy's resistance to overconfidence while
	// accounting for the overall logit distribution (He et al.).
	ED
)

// String returns the paper's abbreviation for the strategy.
func (s OODStrategy) String() string {
	switch s {
	case MSP:
		return "MSP"
	case ES:
		return "ES"
	case ED:
		return "ED"
	default:
		return fmt.Sprintf("OODStrategy(%d)", int(s))
	}
}

// OODStrategies lists all strategies in the paper's column order.
func OODStrategies() []OODStrategy { return []OODStrategy{MSP, ES, ED} }

// idness computes the strategy's ID-ness score for one row from its
// softmax probabilities and its logits. MSP reads the probabilities;
// ES and ED reduce the logits.
func idness(s OODStrategy, probs, logits []float64) float64 {
	switch s {
	case MSP:
		_, p := mat.ArgMax(probs)
		return p
	case ES:
		return mat.LogSumExp(logits)
	case ED:
		return mat.LogSumExp(logits) - mat.Mean(logits)
	default:
		panic("targad: unknown OOD strategy")
	}
}

// isNormal is the Section III-C normal rule on one row of softmax
// probabilities: the row is normal when its mass on the k normal
// classes, Σ_{j=m+1..m+k} p_j, exceeds k/(m+k).
func (mo *Model) isNormal(probs []float64) bool {
	var pNormal float64
	for _, p := range probs[mo.m : mo.m+mo.k] {
		pNormal += p
	}
	return pNormal > mo.NormalPrior()
}

// calibrateIdentification derives, per strategy, the threshold that
// separates target anomalies from non-target anomalies among
// anomalous-looking instances. It places the cut midway between the
// median ID-ness of the labeled target anomalies and the
// weight-weighted mean ID-ness of the non-target anomaly candidates —
// the Eq. (4) weights concentrate on genuine non-target anomalies, so
// the noisy normals and targets hiding in D_U^A barely move the
// estimate. Both sides are available at training time; no labeled
// non-target data is needed.
func (mo *Model) calibrateIdentification(labeled, cand rowSet, weights []float64) {
	if labeled.len() == 0 || cand.len() == 0 {
		return
	}
	strategies := OODStrategies()
	lv := make([][]float64, len(strategies))
	for si := range lv {
		lv[si] = make([]float64, labeled.len())
	}
	mo.forRows(labeled, func(i int, probs, logits []float64) {
		for si, s := range strategies {
			lv[si][i] = idness(s, probs, logits)
		}
	})
	wSum := make([]float64, len(strategies))
	vSum := make([]float64, len(strategies))
	mo.forRows(cand, func(i int, probs, logits []float64) {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		for si, s := range strategies {
			wSum[si] += w
			vSum[si] += w * idness(s, probs, logits)
		}
	})
	for si, s := range strategies {
		candCenter := vSum[si]
		if wSum[si] > 0 {
			candCenter = vSum[si] / wSum[si]
		}
		mo.idThreshold[s] = (median(lv[si]) + candCenter) / 2
	}
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	idx := argsortDesc(v)
	n := len(idx)
	if n%2 == 1 {
		return v[idx[n/2]]
	}
	return (v[idx[n/2-1]] + v[idx[n/2]]) / 2
}

// tuneIdentifyOnValidation refines the per-strategy thresholds on a
// labeled validation split (Section IV-C tunes every hyperparameter on
// validation, and the validation sets of Table I contain labeled
// non-target anomalies). For each strategy it sweeps the quantiles of
// the validation ID-ness distribution and keeps the threshold with the
// best macro F1 over the three-way classification. It requires minimal
// support of each class to avoid fitting noise. One pass over the
// split reads every row's normal test and all three ID-ness values.
func (mo *Model) tuneIdentifyOnValidation(v *dataset.EvalSet) {
	if v == nil || mo.clf == nil {
		return
	}
	var nT, nNT int
	for _, k := range v.Kind {
		switch k {
		case dataset.KindTarget:
			nT++
		case dataset.KindNonTarget:
			nNT++
		}
	}
	if nT < 5 || nNT < 5 {
		return
	}
	strategies := OODStrategies()
	n := v.X.Rows
	anomalous := make([]bool, n)
	ids := make([][]float64, len(strategies))
	for si := range ids {
		ids[si] = make([]float64, n)
	}
	mo.forRows(rowSet{x: v.X}, func(i int, probs, logits []float64) {
		anomalous[i] = !mo.isNormal(probs)
		for si, s := range strategies {
			ids[si][i] = idness(s, probs, logits)
		}
	})
	actual := make([]int, n)
	for i, k := range v.Kind {
		actual[i] = int(k)
	}
	pred := make([]int, n)
	for si, s := range strategies {
		// Candidate thresholds: quantiles of the anomalous rows'
		// ID-ness values.
		var vals []float64
		for i, a := range anomalous {
			if a {
				vals = append(vals, ids[si][i])
			}
		}
		if len(vals) < 4 {
			continue
		}
		order := argsortDesc(vals)
		bestThr, bestF1 := mo.idThreshold[s], -1.0
		for q := 1; q < 20; q++ {
			thr := vals[order[len(order)*q/20]]
			for i := range pred {
				switch {
				case !anomalous[i]:
					pred[i] = int(dataset.KindNormal)
				case ids[si][i] >= thr:
					pred[i] = int(dataset.KindTarget)
				default:
					pred[i] = int(dataset.KindNonTarget)
				}
			}
			conf, err := metrics.NewConfusion([]string{"n", "t", "nt"}, actual, pred)
			if err != nil {
				continue
			}
			if f1 := conf.Report().MacroAvg.F1; f1 > bestF1 {
				bestF1 = f1
				bestThr = thr
			}
		}
		if bestF1 >= 0 {
			mo.idThreshold[s] = bestThr
		}
	}
}

// IdentifyThreshold returns the calibrated ID-ness threshold for a
// strategy (and whether calibration produced one).
func (mo *Model) IdentifyThreshold(s OODStrategy) (float64, bool) {
	t, ok := mo.idThreshold[s]
	return t, ok
}
