package serve

import (
	"context"
	"errors"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/faultinject"
	"targad/internal/mat"
)

// job is one scoring request queued for the micro-batching dispatcher.
type job struct {
	x *mat.Matrix
	// ctx is the originating request's context (nil = never canceled).
	// The dispatcher drops jobs whose client is already gone — a closed
	// connection, a router hedge that lost — before they cost an
	// inference pass, counting them in targad_serve_canceled_total.
	ctx context.Context
	// identify requests the 3-way decision with strategy; strict marks
	// the strategy as client-chosen, so a missing calibration fails the
	// request instead of silently omitting decisions.
	identify bool
	strict   bool
	strategy core.OODStrategy
	probs    bool
	resp     chan jobResult // buffered (1); the dispatcher never blocks
	// arena is the pooled request scratch this job (and its matrix)
	// lives in, nil for jobs built outside the HTTP handlers. Single-job
	// batches score into arena.res via core.InferOptions.Reuse.
	arena *reqArena
}

// jobResult is the dispatcher's answer for one job. Slices view the
// batch-level result arrays (which may live in the job's own arena)
// and are read-only after send.
type jobResult struct {
	scores  []float64
	kinds   []dataset.Kind // nil when identification was skipped
	probs   *mat.Matrix    // nil unless requested; rows for this job only
	version int64
	err     error
}

// errNoModel fails requests that arrive before any model is installed.
var errNoModel = errors.New("serve: no model loaded")

// errDraining fails jobs still queued when the server shuts down.
var errDraining = errors.New("serve: server shutting down")

// errBatchWidth fails a job whose rows are narrower or wider than the
// batch it was queued into.
var errBatchWidth = errors.New("serve: instance width differs from batch")

// errStrategyNotCalibrated fails strict jobs whose strategy the served
// model has no threshold for.
var errStrategyNotCalibrated = errors.New("serve: identification strategy not calibrated on the served model")

// dispatch is the micro-batching loop: one goroutine drains the queue
// and runs a single inference pass per batch, so the blocked GEMM
// amortizes across concurrent requests. Batching is work-conserving: a
// batch never waits for company, so a lone request scores at once,
// and the rows that queue during a pass form the next batch.
func (s *Server) dispatch() {
	defer s.wg.Done()
	for {
		var first *job
		select {
		case first = <-s.queue:
		case <-s.done:
			s.drainQueue()
			return
		}
		jobs := s.collectBatch(first)
		s.runBatch(jobs)
	}
}

// collectBatch returns first plus whatever is already queued, up to
// MaxBatch rows. It never waits: a score depends only on the model and
// the row, so holding a job back to fill a batch would buy nothing but
// latency.
func (s *Server) collectBatch(first *job) []*job {
	jobs := []*job{first}
	for rows := first.x.Rows; rows < s.cfg.MaxBatch; {
		select {
		case j := <-s.queue:
			jobs = append(jobs, j)
			rows += j.x.Rows
		default:
			return jobs
		}
	}
	return jobs
}

// drainQueue answers every still-queued job with errDraining so no
// handler is left waiting after shutdown.
func (s *Server) drainQueue() {
	for {
		select {
		case j := <-s.queue:
			j.resp <- jobResult{err: errDraining}
		default:
			return
		}
	}
}

// runBatch scores one coalesced batch and fans results back out to the
// member jobs. The model generation is loaded once, so a hot-reload
// racing this batch lets it finish on the model it started with.
func (s *Server) runBatch(jobs []*job) {
	// Drop jobs whose client already disconnected (hedge cancel, closed
	// connection) before they cost inference, and fail jobs whose width
	// disagrees with the first live job's — they cannot share its GEMM
	// pass (the model's own dim check still guards the survivors). The
	// buffered resp send keeps the channel invariant for the abandoned
	// handler.
	batch := jobs[:0]
	var rows, cols int
	for _, j := range jobs {
		switch {
		case j.ctx != nil && j.ctx.Err() != nil:
			s.metrics.canceled.Add(1)
			j.resp <- jobResult{err: j.ctx.Err()}
		case len(batch) > 0 && j.x.Cols != cols:
			j.resp <- jobResult{err: errBatchWidth}
		default:
			cols = j.x.Cols
			batch = append(batch, j)
			rows += j.x.Rows
		}
	}
	if len(batch) == 0 {
		return
	}

	lm := s.cur.Load()
	if lm == nil {
		for _, j := range batch {
			j.resp <- jobResult{err: errNoModel}
		}
		return
	}

	x := batch[0].x
	if len(batch) > 1 {
		x = mat.New(rows, cols)
		off := 0
		for _, j := range batch {
			copy(x.Data[off:], j.x.Data)
			off += len(j.x.Data)
		}
	}

	res, version, err := s.infer(lm, x, batch)
	if err != nil {
		for _, j := range batch {
			j.resp <- jobResult{err: err}
		}
		return
	}

	off := 0
	for _, j := range batch {
		n := j.x.Rows
		j.resp <- answerFor(j, res, off, n, version)
		off += n
	}
}

// answerFor cuts job j's answer, rows [off, off+n), out of a pass's
// result: its scores, the decisions under its strategy, and its
// probability rows when it asked for them. A strategy the client named
// that the model has no calibration for fails the job; the server's
// default one only omits the decisions.
func answerFor(j *job, res *core.InferResult, off, n int, version int64) jobResult {
	out := jobResult{scores: res.Scores[off : off+n : off+n], version: version}
	if j.identify {
		if kinds, ok := res.Kinds[j.strategy]; ok {
			out.kinds = kinds[off : off+n : off+n]
		} else if j.strict {
			return jobResult{err: errStrategyNotCalibrated, version: version}
		}
	}
	if j.probs {
		if off == 0 && n == res.Probs.Rows {
			out.probs = res.Probs
		} else {
			c := res.Probs.Cols
			out.probs = &mat.Matrix{Rows: n, Cols: c, Data: res.Probs.Data[off*c : (off+n)*c]}
		}
	}
	return out
}

// infer runs one thread-safe inference pass — a batch, or one pass of
// an inline request — computing the union of the member jobs' needs
// (calibrated strategies, probabilities) in one forward. Single-job
// passes backed by a request arena score into the arena's recycled
// InferResult, so the steady inline path allocates nothing here. Every
// pass feeds the drift window and the sampled taps alike.
func (s *Server) infer(lm *loadedModel, x *mat.Matrix, batch []*job) (*core.InferResult, int64, error) {
	opt := core.InferOptions{}
	var strategies []core.OODStrategy
	var a *reqArena // the single job's arena, nil for multi-job batches
	if len(batch) == 1 {
		a = batch[0].arena
	}
	if a != nil {
		strategies = a.strategies[:0]
		opt.Reuse = &a.res
	}
	var seen [3]bool
	for _, j := range batch {
		if j.probs {
			opt.Probs = true
		}
		if st := int(j.strategy); j.identify && st >= 0 && st < len(seen) && !seen[st] {
			seen[st] = true
			if _, ok := lm.model.IdentifyThreshold(j.strategy); ok {
				strategies = append(strategies, j.strategy)
			}
		}
	}
	opt.Strategies = strategies

	faultinject.Sleep(faultinject.ServeSlowScore)
	if v, ok := faultinject.Value(faultinject.ServeDriftTraffic); ok {
		// Injected upstream data drift: shift every feature of the
		// batch before scoring, so the drift windows see it exactly as
		// real shifted traffic.
		for i := range x.Data {
			x.Data[i] += v
		}
	}
	res, err := s.score(lm.model, x, opt)
	if err != nil {
		return nil, lm.version, err
	}
	s.metrics.batches.Add(1)
	s.metrics.batchRows.Add(int64(x.Rows))
	s.metrics.rows.Add(int64(x.Rows))

	// Feed the drift window and (when active) the shadow evaluation.
	// Binary-path rows are observed identically to JSON rows: an f32
	// frame was widened exactly at decode.
	kinds := res.Kinds[s.cfg.Strategy]
	if lm.mon != nil {
		lm.mon.Observe(x, res.Scores, kinds)
	}
	s.maybeShadow(x, res.Scores, kinds)
	s.maybeAcquire(lm, x, res.Scores, kinds)
	return res, lm.version, nil
}
