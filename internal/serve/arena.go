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
// path (binary or JSON) allocates next to nothing. The handler owns
// the arena from acquire to release, and nothing else ever writes into
// it: a request scores on its own handler, so its arena always returns
// to the pool.
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
	view mat.Matrix   // one pass over JSON rows in x

	// The request's options: strict marks the strategy as
	// client-chosen, so a missing calibration fails the request instead
	// of omitting its decisions.
	strategy  core.OODStrategy
	strict    bool
	wantProbs bool

	// res is the inference reuse target of every pass
	// (core.InferOptions.Reuse); strategies backs the passes'
	// Strategies option, so setting it allocates nothing.
	res        core.InferResult
	strategies [1]core.OODStrategy

	// The answer, collected pass by pass; kinds holds decisions only
	// when decided.
	version int64
	scores  []float64
	decided bool
	kinds   []dataset.Kind
	probs   mat.Matrix

	decisions []string    // JSON response decision strings
	probsRows [][]float64 // JSON response probability row headers
}

var arenaPool = sync.Pool{New: func() any { return new(reqArena) }}

// ensure grows s to n elements, keeping capacity.
func ensure[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}
