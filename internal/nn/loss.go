package nn

import (
	"math"

	"targad/internal/mat"
	"targad/internal/parallel"
)

// probEps floors probabilities inside logarithms so cross-entropy and
// entropy stay finite even for saturated softmax outputs.
const probEps = 1e-12

// SoftmaxRows writes the row-wise softmax of logits into a new matrix.
// Rows are independent, so large batches are split across the worker
// pool; the result is bitwise identical for any worker count.
func SoftmaxRows(logits *mat.Matrix) *mat.Matrix {
	return SoftmaxRowsInto(nil, logits)
}

// SoftmaxRowsInto is SoftmaxRows with a caller-supplied destination,
// grown (or allocated when nil) via mat.Ensure and returned. dst must
// not alias logits.
func SoftmaxRowsInto(dst, logits *mat.Matrix) *mat.Matrix {
	dst = mat.Ensure(dst, logits.Rows, logits.Cols)
	if parallel.Serial(logits.Rows, softmaxChunk) {
		// No closure on the serial path: a serving pass must not
		// allocate.
		softmaxRange(dst, logits, 0, logits.Rows)
		return dst
	}
	parallel.ForEachChunkMin(logits.Rows, softmaxChunk, func(lo, hi int) {
		softmaxRange(dst, logits, lo, hi)
	})
	return dst
}

// softmaxChunk is the fewest rows SoftmaxRowsInto hands one worker.
const softmaxChunk = 64

// softmaxRange writes the softmax of logits rows [lo, hi) into dst.
func softmaxRange(dst, logits *mat.Matrix, lo, hi int) {
	for i := lo; i < hi; i++ {
		mat.Softmax(dst.Row(i), logits.Row(i))
	}
}

// SoftCrossEntropy computes the mean weighted cross-entropy
// −Σ_j y_j·log p_j between soft target rows y and softmax(logits), and
// the gradient of that mean loss with respect to the logits.
//
// weights may be nil (all ones). Each row's contribution to both loss
// and gradient is scaled by its weight, and the total is divided by
// the number of rows — matching the 1/|D| normalizations of Eqs. (3)
// and (6) in the paper.
func SoftCrossEntropy(logits, y *mat.Matrix, weights []float64) (loss float64, grad *mat.Matrix) {
	return SoftCrossEntropyInto(nil, logits, y, weights)
}

// SoftCrossEntropyInto is SoftCrossEntropy with a caller-supplied
// gradient destination, grown (or allocated when nil) via mat.Ensure
// and returned. The softmax probabilities are computed directly in the
// gradient rows and transformed in place, so steady-state calls
// allocate nothing. dst must not alias logits or y.
func SoftCrossEntropyInto(dst, logits, y *mat.Matrix, weights []float64) (loss float64, grad *mat.Matrix) {
	if logits.Rows != y.Rows || logits.Cols != y.Cols {
		panic("nn: cross-entropy shape mismatch")
	}
	n := float64(logits.Rows)
	grad = mat.Ensure(dst, logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		w := 1.0
		if weights != nil {
			w = weights[i]
		}
		gr := grad.Row(i)
		mat.Softmax(gr, logits.Row(i))
		yr := y.Row(i)
		// Soft-label rows sum to s (usually 1); the softmax CE
		// gradient generalizes to s·p − y.
		var ysum float64
		for _, yv := range yr {
			ysum += yv
		}
		for j, p := range gr {
			if yr[j] != 0 {
				loss += -w * yr[j] * math.Log(math.Max(p, probEps))
			}
			gr[j] = w * (ysum*p - yr[j]) / n
		}
	}
	return loss / n, grad
}

// EntropyInto computes the mean Shannon entropy H(p) = −Σ_j p_j·log p_j
// of softmax(logits) rows and the gradient of that mean with respect to
// the logits.
//
// This realizes the paper's confidence regularizer L_RE (Eq. 7): the
// paper prints Σ p·log p, the negative entropy, but describes
// *boosting* prediction confidence on D_L ∪ D_U^N, which requires
// minimizing entropy; we therefore expose H(p) directly and add it
// with a positive λ₂.
//
// The gradient goes to dst, grown (or allocated when nil) via
// mat.Ensure and returned. The softmax probabilities are computed directly in the gradient rows and
// transformed in place. dst must not alias logits.
func EntropyInto(dst, logits *mat.Matrix) (loss float64, grad *mat.Matrix) {
	n := float64(logits.Rows)
	grad = mat.Ensure(dst, logits.Rows, logits.Cols)
	for i := 0; i < logits.Rows; i++ {
		gr := grad.Row(i)
		mat.Softmax(gr, logits.Row(i))
		var h float64
		for _, p := range gr {
			if p > 0 {
				h -= p * math.Log(math.Max(p, probEps))
			}
		}
		loss += h
		for j, p := range gr {
			// dH/dz_j = −p_j (log p_j + H)
			gr[j] = -p * (math.Log(math.Max(p, probEps)) + h) / n
		}
	}
	return loss / n, grad
}

// MSE computes the mean squared error between pred and target
// (averaged over all elements per row and over rows) and the gradient
// with respect to pred.
func MSE(pred, target *mat.Matrix) (loss float64, grad *mat.Matrix) {
	return MSEInto(nil, pred, target)
}

// MSEInto is MSE with a caller-supplied gradient destination, grown
// (or allocated when nil) via mat.Ensure and returned. dst may alias
// pred (each element is read before it is written) but not target.
func MSEInto(dst, pred, target *mat.Matrix) (loss float64, grad *mat.Matrix) {
	if pred.Rows != target.Rows || pred.Cols != target.Cols {
		panic("nn: MSE shape mismatch")
	}
	n := float64(len(pred.Data))
	grad = mat.Ensure(dst, pred.Rows, pred.Cols)
	for i, p := range pred.Data {
		d := p - target.Data[i]
		loss += d * d
		grad.Data[i] = 2 * d / n
	}
	return loss / n, grad
}

// BCEWithLogits computes the mean binary cross-entropy between
// sigmoid(logit) scalars and {0,1} targets, with the gradient with
// respect to the logits. Used by the GAN-style baselines.
func BCEWithLogits(logits, targets []float64) (loss float64, grad []float64) {
	n := float64(len(logits))
	grad = make([]float64, len(logits))
	for i, z := range logits {
		t := targets[i]
		// Stable: log(1+exp(−|z|)) + max(z,0) − z·t
		loss += math.Log1p(math.Exp(-math.Abs(z))) + math.Max(z, 0) - z*t
		p := 1 / (1 + math.Exp(-z))
		grad[i] = (p - t) / n
	}
	return loss / n, grad
}
