package serve

import "sync"

// The sampled passes: shadow evaluation (shadow.go) and acquisition
// (feedback.go) each take a deterministic fraction of served passes
// and process them on the request's handler, beside the drift window,
// reading the pass's own rows and results before the handler moves
// on. Nothing outlives the request, so nothing is copied. Each keeps
// its own sampler, so each keeps its own phase.

// sampler is deterministic fractional sampling: each pass adds
// fraction, and the pass is taken when the accumulator crosses 1 —
// exactly every 1/fraction-th pass, no RNG.
type sampler struct {
	fraction float64

	mu  sync.Mutex
	acc float64
}

// sampled reports whether this pass is one of p's.
func (p *sampler) sampled() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acc += p.fraction
	if p.acc < 1 {
		return false
	}
	p.acc--
	return true
}
