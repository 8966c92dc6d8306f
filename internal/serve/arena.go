package serve

import (
	"sync"

	"targad/internal/core"
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
// instead.
type reqArena struct {
	hdr     [wire.RequestHeaderSize]byte
	payload wire.PayloadReader // binary feature block → x, in chunks
	body    []byte             // JSON request body
	out     []byte             // response frame build buffer

	jreq scoreRequest // JSON request decode target
	x    *mat.Matrix  // feature rows, JSON or binary (f32 frames widened)

	// res is the inference reuse target for single-job batches
	// (core.InferOptions.Reuse); its slices flow into jobResult and are
	// serialized before the arena is released.
	res        core.InferResult
	strategies [3]core.OODStrategy

	decisions []string    // JSON response decision strings
	probsRows [][]float64 // JSON response probability row headers

	j    job
	jobs [1]*job
}

var arenaPool = sync.Pool{New: func() any {
	a := &reqArena{}
	// The response channel is created once per arena: it is provably
	// empty whenever the arena re-enters the pool (the result was
	// received, or the job never reached the queue).
	a.j.resp = make(chan jobResult, 1)
	a.jobs[0] = &a.j
	return a
}}

func acquireArena() *reqArena { return arenaPool.Get().(*reqArena) }

func releaseArena(a *reqArena) {
	a.j.arena = nil // re-linked on next use; avoid a stale self-reference cycle surprise
	a.j.ctx = nil   // a recycled arena must not look canceled to the dispatcher
	arenaPool.Put(a)
}

// ensureStrings grows s to n elements, keeping capacity.
func ensureStrings(s []string, n int) []string {
	if cap(s) < n {
		return make([]string, n)
	}
	return s[:n]
}

// ensureRows grows r to n row headers, keeping capacity.
func ensureRows(r [][]float64, n int) [][]float64 {
	if cap(r) < n {
		return make([][]float64, n)
	}
	return r[:n]
}
