package serve

import (
	"net/http"

	"targad/internal/mat"
)

// The inline path: a request of more than MaxBatch rows has nothing to
// gain from the micro-batcher — it fills a batch alone — so it skips
// the queue and scores on its own handler, MaxBatch rows per pass.
// A frame decodes pass by pass into the arena's MaxBatch-row matrix,
// so what a request costs the server is one pass of memory, whatever
// its size. With batching off (MaxBatch <= 1) every request takes this
// path as one pass.

// inline reports whether a request of rows rows scores on its own
// handler rather than through the micro-batcher.
func (s *Server) inline(rows int) bool {
	return s.cfg.MaxBatch <= 1 || rows > s.cfg.MaxBatch
}

// scoreInline scores the arena's request on the calling handler, in
// passes of at most MaxBatch rows, all on the model generation loaded
// when it was admitted. At most QueueDepth requests score inline at
// once; past that the request is shed. The answer collects in the
// arena and nothing is written until every row has been read and
// scored, so a frame cut short or running long still gets its 400 and
// no score. A client that is gone stops the request at the next pass.
func (s *Server) scoreInline(a *reqArena, r *http.Request, frame bool) jobResult {
	select {
	case s.inlineSlots <- struct{}{}:
		defer func() { <-s.inlineSlots }()
	default:
		s.metrics.shed.Add(1)
		return jobResult{err: errShed}
	}
	lm := s.cur.Load()
	if lm == nil {
		return jobResult{err: errNoModel}
	}
	ctx := r.Context()
	pass := a.rows
	if s.cfg.MaxBatch > 1 {
		pass = s.cfg.MaxBatch
	}
	a.scores, a.kinds, a.probs.Data = a.scores[:0], a.kinds[:0], a.probs.Data[:0]
	var kinds bool
	for lo := 0; lo < a.rows; lo += pass {
		n := min(pass, a.rows-lo)
		x, err := a.pass(r, frame, lo, n)
		if ctx.Err() != nil {
			// A body read fails when the client drops the connection,
			// and net/http cancels the context before the read returns.
			s.metrics.canceled.Add(1)
			return jobResult{err: ctx.Err()}
		}
		if err != nil {
			return jobResult{err: err}
		}
		res, _, err := s.infer(lm, x, a.jobs[:1])
		if err != nil {
			return jobResult{err: err}
		}
		out := answerFor(&a.j, res, 0, n, lm.version)
		if out.err != nil {
			return out
		}
		kinds = out.kinds != nil
		a.collect(out)
	}
	if frame {
		if err := a.frameEnd(r.Body); err != nil {
			return jobResult{err: err}
		}
	}
	ans := jobResult{scores: a.scores, version: lm.version}
	if kinds {
		ans.kinds = a.kinds
	}
	if a.j.probs {
		a.probs.Rows = a.rows
		ans.probs = &a.probs
	}
	return ans
}

// pass returns rows [lo, lo+n) of the arena's request: read from the
// frame's body into a.x, or a view of the JSON rows already decoded
// there.
func (a *reqArena) pass(r *http.Request, frame bool, lo, n int) (*mat.Matrix, error) {
	if frame {
		if err := a.readRows(r.Body, lo, n); err != nil {
			return nil, err
		}
		return a.x, nil
	}
	c := a.x.Cols
	a.view = mat.Matrix{Rows: n, Cols: c, Data: a.x.Data[lo*c : (lo+n)*c : (lo+n)*c]}
	return &a.view, nil
}

// collect appends one pass's answer to the arena's answer buffers,
// which grow with the rows scored, never ahead of the body.
func (a *reqArena) collect(out jobResult) {
	a.scores = append(a.scores, out.scores...)
	a.kinds = append(a.kinds, out.kinds...)
	if out.probs != nil {
		a.probs.Cols = out.probs.Cols
		a.probs.Data = append(a.probs.Data, out.probs.Data...)
	}
}
