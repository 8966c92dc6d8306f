package serve

import (
	"sync"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/wire"
)

// reqArena is the per-request scratch bundle: every buffer one /score
// request needs, recycled through a sync.Pool so the steady-state hot
// path (binary or JSON) allocates next to nothing. Ownership rule: the
// handler owns the arena from acquire to release; the dispatcher may
// write into it only while the handler is blocked on j.resp, so
// nothing touches a recycled arena. An arena whose job was abandoned
// (client gone, server draining after enqueue) is NOT released — the
// dispatcher may still be writing into it — and falls to the GC
// instead. A request that scores inline never leaves its handler, so
// its arena always returns.
//
// No buffer here scales with a frame's feature block: a.x holds at
// most one pass of MaxBatch rows of a binary frame, and so does the
// pass result in res. What scales with the request is its answer —
// one score, decision and (when asked) probability row per row — and,
// for JSON, the decoded body.
type reqArena struct {
	hdr     [wire.RequestHeaderSize]byte
	h       wire.Request       // the frame's parsed header
	payload wire.PayloadReader // binary feature block → x, in chunks
	body    []byte             // JSON request body
	out     []byte             // response frame build buffer

	jreq scoreRequest // JSON request decode target
	x    *mat.Matrix  // feature rows: the JSON request, or one pass of a frame (f32 widened)
	rows int          // the request's row count
	view mat.Matrix   // one inline pass over JSON rows in x

	// res is the inference reuse target for single-job batches and
	// inline passes (core.InferOptions.Reuse); its slices flow into
	// jobResult and are serialized before the arena is released.
	res        core.InferResult
	strategies [3]core.OODStrategy

	// The answer of an inline request, collected pass by pass.
	scores []float64
	kinds  []dataset.Kind
	probs  mat.Matrix

	decisions []string    // JSON response decision strings
	probsRows [][]float64 // JSON response probability row headers

	j    job
	jobs [1]*job
}

// newArena returns an empty arena. The response channel is created
// once per arena: it is provably empty whenever the arena re-enters the
// pool (the result was received, or the job never reached the queue).
func newArena() *reqArena {
	a := &reqArena{}
	a.j.resp = make(chan jobResult, 1)
	a.jobs[0] = &a.j
	return a
}

var arenaPool = sync.Pool{New: func() any { return newArena() }}

func acquireArena() *reqArena { return arenaPool.Get().(*reqArena) }

func releaseArena(a *reqArena) {
	a.j.arena = nil // re-linked on next use; avoid a stale self-reference cycle surprise
	a.j.ctx = nil   // a recycled arena must not look canceled to the dispatcher
	arenaPool.Put(a)
}

// ensure grows s to n elements, keeping capacity.
func ensure[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
