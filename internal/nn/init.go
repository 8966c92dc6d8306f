package nn

import (
	"math"

	"targad/internal/rng"
)

// Initializer fills a flat in×out weight tensor.
type Initializer func(w []float64, in, out int, r *rng.RNG)

// XavierUniform initializes weights uniformly in ±sqrt(6/(in+out)),
// the standard choice for sigmoid/tanh networks.
func XavierUniform(w []float64, in, out int, r *rng.RNG) {
	limit := math.Sqrt(6 / float64(in+out))
	r.FillUniform(w, -limit, limit)
}

// HeNormal initializes weights from N(0, 2/in), the standard choice
// for ReLU networks.
func HeNormal(w []float64, in, out int, r *rng.RNG) {
	std := math.Sqrt(2 / float64(in))
	r.FillNormal(w, 0, std)
}
