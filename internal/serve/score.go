package serve

import (
	"errors"
	"net/http"

	"targad/internal/core"
	"targad/internal/faultinject"
	"targad/internal/mat"
)

// Every /score request scores on its own handler, MaxBatch rows per
// pass. A score depends only on the model and the row, so there is
// nothing to gain from pooling rows across requests; a frame decodes
// pass by pass into the arena's MaxBatch-row matrix, so what a request
// costs the server is one pass of memory, whatever its size.

// errNoModel fails requests that arrive before any model is installed.
var errNoModel = errors.New("serve: no model loaded")

// errDraining fails requests that arrive after Close.
var errDraining = errors.New("serve: server shutting down")

// errStrategyNotCalibrated fails a request whose client-chosen strategy
// the served model has no threshold for.
var errStrategyNotCalibrated = errors.New("serve: identification strategy not calibrated on the served model")

// errShed answers a request turned away for lack of room (429):
// QueueDepth requests are already scoring.
var errShed = errors.New("scoring queue full, retry later")

// scorePasses scores the arena's request on the calling handler, in
// passes of at most MaxBatch rows, all on the model generation loaded
// when it was admitted. At most QueueDepth requests score at once;
// past that the request is shed. The answer collects in the arena and
// nothing is written until every row has been read and scored, so a
// frame cut short or running long still gets its 400 and no score. A
// client that is gone stops the request at the next pass.
func (s *Server) scorePasses(a *reqArena, r *http.Request, frame bool) error {
	if s.draining() {
		return errDraining
	}
	select {
	case s.slots <- struct{}{}:
		defer func() { <-s.slots }()
	default:
		s.metrics.shed.Add(1)
		return errShed
	}
	lm := s.cur.Load()
	if lm == nil {
		return errNoModel
	}
	// A strategy the client named that the model has no calibration for
	// fails the request; the server's default one only omits the
	// decisions.
	opt := core.InferOptions{Probs: a.wantProbs, Reuse: &a.res}
	if _, ok := lm.model.IdentifyThreshold(a.strategy); ok {
		a.strategies[0] = a.strategy
		opt.Strategies = a.strategies[:]
	} else if a.strict {
		return errStrategyNotCalibrated
	}
	a.version, a.decided = lm.version, opt.Strategies != nil
	a.scores, a.kinds, a.probs.Data = a.scores[:0], a.kinds[:0], a.probs.Data[:0]
	ctx := r.Context()
	for lo := 0; lo < a.rows; lo += s.cfg.MaxBatch {
		n := min(s.cfg.MaxBatch, a.rows-lo)
		x, err := a.pass(r, frame, lo, n)
		if ctx.Err() != nil {
			// A body read fails when the client drops the connection,
			// and net/http cancels the context before the read returns.
			s.metrics.canceled.Add(1)
			return ctx.Err()
		}
		if err != nil {
			return err
		}
		res, err := s.infer(lm, x, opt)
		if err != nil {
			return err
		}
		a.collect(res)
	}
	if frame {
		return a.frameEnd(r.Body)
	}
	return nil
}

// infer runs one inference pass of lm over x and feeds it to the drift
// window, the shadow evaluation and the acquisition queue, all on the
// calling handler. Passes score into the arena's recycled InferResult
// (opt.Reuse), so a steady pass allocates nothing here.
func (s *Server) infer(lm *loadedModel, x *mat.Matrix, opt core.InferOptions) (*core.InferResult, error) {
	faultinject.Sleep(faultinject.ServeSlowScore)
	if v, ok := faultinject.Value(faultinject.ServeDriftTraffic); ok {
		// Injected upstream data drift: shift every feature of the
		// pass before scoring, so the drift windows see it exactly as
		// real shifted traffic.
		for i := range x.Data {
			x.Data[i] += v
		}
	}
	res, err := s.score(lm.model, x, opt)
	if err != nil {
		return nil, err
	}
	s.metrics.batches.Add(1)
	s.metrics.batchRows.Add(int64(x.Rows))
	s.metrics.rows.Add(int64(x.Rows))

	// Feed the drift window and, on sampled passes, the shadow
	// evaluation and the acquisition queue. Each reads the pass before
	// it returns, so the arena's rows and results are never held past
	// the request. Binary-path rows are observed identically to JSON
	// rows: an f32 frame was widened exactly at decode.
	kinds := res.Kinds[s.cfg.Strategy]
	if lm.mon != nil {
		lm.mon.Observe(x, res.Scores, kinds)
	}
	s.maybeShadow(x, res.Scores, kinds)
	s.maybeAcquire(lm, x, res.Scores, kinds)
	return res, nil
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

// collect appends one pass's answer to the arena's answer buffers —
// its scores, its decisions under the request's strategy, and its
// probability rows when asked — which grow with the rows scored, never
// ahead of the body.
func (a *reqArena) collect(res *core.InferResult) {
	a.scores = append(a.scores, res.Scores...)
	if a.decided {
		a.kinds = append(a.kinds, res.Kinds[a.strategy]...)
	}
	if a.wantProbs {
		a.probs.Rows, a.probs.Cols = len(a.scores), res.Probs.Cols
		a.probs.Data = append(a.probs.Data, res.Probs.Data...)
	}
}
