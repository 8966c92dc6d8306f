// Package rng centralizes pseudo-random number generation for the
// whole repository so that every experiment, test, and benchmark is
// reproducible from a single integer seed.
//
// The package wraps math/rand with a splittable construction: a parent
// RNG can derive independent child streams keyed by a label, so that
// (for example) the k autoencoders trained in parallel each consume an
// independent, deterministic stream regardless of scheduling order.
package rng

import (
	"hash/fnv"
	"math/rand"
)

// RNG is a deterministic random source with convenience samplers.
type RNG struct {
	src *rand.Rand
}

// New returns an RNG seeded with seed.
func New(seed int64) *RNG {
	return &RNG{src: rand.New(rand.NewSource(seed))}
}

// Split derives an independent child RNG keyed by label. The child's
// stream depends only on the parent's seed lineage and the label, not
// on how much of the parent stream has been consumed — callers should
// split once, up front, per component.
func (r *RNG) Split(label string) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	mix := int64(h.Sum64())
	return New(r.src.Int63() ^ mix)
}

// SplitN derives an independent child RNG keyed by an index.
func (r *RNG) SplitN(label string, i int) *RNG {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	_, _ = h.Write([]byte{byte(i), byte(i >> 8), byte(i >> 16), byte(i >> 24)})
	mix := int64(h.Sum64())
	return New(r.src.Int63() ^ mix)
}

// Float64 returns a uniform sample from [0,1).
func (r *RNG) Float64() float64 { return r.src.Float64() }

// Uniform returns a uniform sample from [lo,hi).
func (r *RNG) Uniform(lo, hi float64) float64 {
	return lo + (hi-lo)*r.src.Float64()
}

// Intn returns a uniform integer in [0,n). It panics when n <= 0.
func (r *RNG) Intn(n int) int { return r.src.Intn(n) }

// Int63 returns a non-negative 63-bit integer.
func (r *RNG) Int63() int64 { return r.src.Int63() }

// Normal returns a sample from the normal distribution N(mean, std²).
func (r *RNG) Normal(mean, std float64) float64 {
	return mean + std*r.src.NormFloat64()
}

// Bernoulli returns true with probability p.
func (r *RNG) Bernoulli(p float64) bool { return r.src.Float64() < p }

// FillNormal fills dst with independent N(mean, std²) samples.
func (r *RNG) FillNormal(dst []float64, mean, std float64) {
	for i := range dst {
		dst[i] = r.Normal(mean, std)
	}
}

// FillUniform fills dst with independent uniform samples from [lo,hi).
func (r *RNG) FillUniform(dst []float64, lo, hi float64) {
	for i := range dst {
		dst[i] = r.Uniform(lo, hi)
	}
}

// Perm returns a random permutation of [0,n).
func (r *RNG) Perm(n int) []int { return r.src.Perm(n) }

// PermInto writes a random permutation of [0,n) into dst, reusing its
// backing array when capacity allows, and returns the (possibly
// regrown) slice. It consumes the source stream exactly as Perm does
// and produces the identical permutation, so Perm call sites can adopt
// buffer reuse without perturbing any seeded experiment.
func (r *RNG) PermInto(dst []int, n int) []int {
	if cap(dst) < n {
		dst = make([]int, n)
	}
	dst = dst[:n]
	if n == 0 {
		return dst
	}
	// Mirrors math/rand's Perm exactly, including the i=0 iteration
	// whose Intn(1) draw advances the source stream.
	for i := 0; i < n; i++ {
		j := r.src.Intn(i + 1)
		dst[i] = dst[j]
		dst[j] = i
	}
	return dst
}

// Shuffle permutes indices [0,n) via the provided swap function.
func (r *RNG) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Sample returns k distinct indices drawn uniformly from [0,n) in
// random order. It panics when k > n.
func (r *RNG) Sample(n, k int) []int {
	if k > n {
		panic("rng: sample size exceeds population")
	}
	return r.src.Perm(n)[:k]
}

// Choice returns one index from [0,n) with probability proportional to
// weights[i]. Non-positive weights are treated as zero; if all weights
// are zero the choice is uniform.
func (r *RNG) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += w
		}
	}
	if total <= 0 {
		return r.Intn(len(weights))
	}
	t := r.Float64() * total
	for i, w := range weights {
		if w <= 0 {
			continue
		}
		t -= w
		if t < 0 {
			return i
		}
	}
	return len(weights) - 1
}
