package serve

import (
	"sync"

	"targad/internal/dataset"
	"targad/internal/mat"
)

// The sampled-batch tap: shadow evaluation (shadow.go) and acquisition
// (feedback.go) both take a deterministic fraction of served batches
// and process a copy of each in the background. Each keeps its own
// sampler, so each keeps its own phase.

// sampler is deterministic fractional sampling: each batch adds
// fraction, and the batch is taken when the accumulator crosses 1 —
// exactly every 1/fraction-th batch, no RNG.
type sampler struct {
	fraction float64

	mu  sync.Mutex
	acc float64
}

// sampled reports whether this batch is one of p's.
func (s *Server) sampled(p *sampler) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.acc += p.fraction
	if p.acc < 1 {
		return false
	}
	p.acc--
	return true
}

// batchCopy is one sampled batch copied out of the request path. The
// copy is mandatory, not an optimization: the source rows and result
// slices may live in a pooled request arena that is recycled the
// moment the response is written, so the background pass can never
// hold references into them. kinds is empty when the batch carried no
// decisions.
type batchCopy struct {
	x      *mat.Matrix
	scores []float64
	kinds  []dataset.Kind
}

var batchCopyPool = sync.Pool{New: func() any { return new(batchCopy) }}

// tap copies one sampled batch into pooled buffers synchronously,
// before the caller's arena can be recycled, then runs fn on the copy
// in a goroutine Close waits for. A closing server taps nothing:
// closeMu makes the draining check and wg.Add one step, so Close's
// wait counts every goroutine started.
func (s *Server) tap(x *mat.Matrix, scores []float64, kinds []dataset.Kind, fn func(*batchCopy)) {
	s.closeMu.Lock()
	defer s.closeMu.Unlock()
	if s.draining() {
		return
	}
	b := batchCopyPool.Get().(*batchCopy)
	b.x = mat.Ensure(b.x, x.Rows, x.Cols)
	copy(b.x.Data, x.Data)
	b.scores = append(b.scores[:0], scores...)
	b.kinds = append(b.kinds[:0], kinds...)
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		fn(b)
		batchCopyPool.Put(b)
	}()
}
