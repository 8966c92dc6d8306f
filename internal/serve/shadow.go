package serve

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"targad/internal/buildinfo"
	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/mat"
)

// Shadow evaluation: a retrain cycle (internal/retrain) installs its
// candidate model beside the serving one with ShadowModel. The
// candidate never answers requests; instead a deterministic sample of
// live passes is re-scored on it, on the request's handler and counted
// against QueueDepth, accumulating score deltas and decision-flip
// rates against the answers the serving model actually returned. The cycle gates on those stats: it either
// promotes the candidate — PromoteShadow installs the very same
// *core.Model object as the next serving generation, so promoted
// scoring is bitwise-identical to what the shadow produced — or
// discards it. No HTTP route installs, promotes or discards a shadow.

// shadowState is one candidate under evaluation. The model pointer is
// immutable; the stats are guarded by mu.
type shadowState struct {
	model    *core.Model
	source   string
	loadedAt time.Time
	// id distinguishes candidates across load/promote/discard cycles so
	// an automated gate acts on the candidate it measured, never a
	// replacement that raced in. baseVersion records the serving
	// generation the comparison runs against.
	id          int64
	baseVersion int64

	// sample picks the live passes re-scored on the candidate
	// (ShadowSample of them).
	sample sampler

	mu      sync.Mutex
	batches int64
	rows    int64
	errs    int64

	deltaSum float64 // Σ (shadow - serving) score
	absSum   float64 // Σ |shadow - serving| score
	maxAbs   float64
	decided  int64 // rows where both models produced a decision
	flips    int64 // decided rows where the decision changed
}

// ShadowReport is the JSON/metrics view of a shadow evaluation. ID
// names the candidate (monotonic per process); BaseModelVersion the
// serving generation it is compared against; Build the server binary
// that produced the comparison.
type ShadowReport struct {
	ID               int64     `json:"id"`
	Source           string    `json:"source"`
	LoadedAt         time.Time `json:"loaded_at"`
	BaseModelVersion int64     `json:"base_model_version"`
	Build            string    `json:"build"`

	Batches int64 `json:"batches"`
	Rows    int64 `json:"rows"`
	Errors  int64 `json:"errors,omitempty"`

	MeanDelta    float64 `json:"score_mean_delta"`
	MeanAbsDelta float64 `json:"score_mean_abs_delta"`
	MaxAbsDelta  float64 `json:"score_max_abs_delta"`

	DecidedRows int64   `json:"decided_rows"`
	Flips       int64   `json:"decision_flips"`
	FlipRate    float64 `json:"decision_flip_rate"`
}

// ShadowModel starts shadow evaluation of an in-memory candidate —
// the retrain orchestrator's entry point. The orchestrator round-trips
// its fitted model through Save and core.Load in memory, with no file,
// and hands over the loaded model, so m is the form a restart would
// serve. Returns the candidate id PromoteShadow/DiscardShadow act on.
// Replaces any previous candidate (its stats are dropped). The serving
// model is untouched.
func (s *Server) ShadowModel(m *core.Model, source string) (int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if m == nil {
		return 0, errors.New("serve: nil shadow model")
	}
	if err := s.intake(m); err != nil {
		return 0, fmt.Errorf("serve: shadow model: %w", err)
	}
	sh := &shadowState{
		model:       m,
		source:      source,
		loadedAt:    time.Now(),
		id:          s.shadowSeq.Add(1),
		baseVersion: s.ModelVersion(),
		sample:      sampler{fraction: s.cfg.ShadowSample},
	}
	s.shadow.Store(sh)
	s.cfg.Logf("serve: shadow candidate %d loaded from %s (sample %.2f)", sh.id, source, s.cfg.ShadowSample)
	return sh.id, nil
}

// PromoteShadow installs shadow candidate id as the next serving
// generation and ends the evaluation. Because the promoted generation
// is the same model object the shadow scored with, traffic after
// promotion gets bitwise-identical scores to the shadow's.
func (s *Server) PromoteShadow(id int64) (int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	sh, err := s.candidate(id)
	if err != nil {
		return 0, err
	}
	v := s.install(sh.model, sh.source)
	s.shadow.Store(nil)
	s.metrics.reloads.Add(1)
	s.cfg.Logf("serve: shadow candidate %d promoted to v%d", sh.id, v)
	return v, nil
}

// DiscardShadow drops shadow candidate id and its stats.
func (s *Server) DiscardShadow(id int64) error {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	sh, err := s.candidate(id)
	if err != nil {
		return err
	}
	s.shadow.Store(nil)
	s.cfg.Logf("serve: shadow candidate %d discarded", sh.id)
	return nil
}

// candidate returns the loaded shadow if it is candidate id; callers
// hold reloadMu. The id pins the candidate the caller evaluated: if
// another replaced it, promoting or discarding fails instead of acting
// on unmeasured code.
func (s *Server) candidate(id int64) (*shadowState, error) {
	sh := s.shadow.Load()
	if sh == nil {
		return nil, errors.New("serve: no shadow model loaded")
	}
	if sh.id != id {
		return nil, fmt.Errorf("serve: shadow candidate %d superseded by %d", id, sh.id)
	}
	return sh, nil
}

// CurrentModel returns the served model object (nil when none): the
// warm-start source for retraining. The server never changes the
// weights of a model it has installed, during or after its generation;
// callers must not mutate it either.
func (s *Server) CurrentModel() *core.Model {
	if lm := s.cur.Load(); lm != nil {
		return lm.model
	}
	return nil
}

// ShadowStats returns the active candidate's running comparison, false
// when no candidate is loaded.
func (s *Server) ShadowStats() (ShadowReport, bool) {
	r := s.shadowSnapshot()
	if r == nil {
		return ShadowReport{}, false
	}
	return *r, true
}

// shadowSnapshot copies the running stats, or nil when no shadow is
// active.
func (s *Server) shadowSnapshot() *ShadowReport {
	sh := s.shadow.Load()
	if sh == nil {
		return nil
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	r := &ShadowReport{
		ID:               sh.id,
		Source:           sh.source,
		LoadedAt:         sh.loadedAt,
		BaseModelVersion: sh.baseVersion,
		Build:            buildinfo.Version(),
		Batches:          sh.batches,
		Rows:             sh.rows,
		Errors:           sh.errs,
		MaxAbsDelta:      sh.maxAbs,
		DecidedRows:      sh.decided,
		Flips:            sh.flips,
	}
	if sh.rows > 0 {
		r.MeanDelta = sh.deltaSum / float64(sh.rows)
		r.MeanAbsDelta = sh.absSum / float64(sh.rows)
	}
	if sh.decided > 0 {
		r.FlipRate = float64(sh.flips) / float64(sh.decided)
	}
	return r
}

// maybeShadow re-scores one served pass on the shadow model when the
// pass is sampled. The fast path (no shadow loaded) is one atomic load
// and zero allocations; a sampled pass runs shadowScore on the
// request's handler, before the handler moves on.
func (s *Server) maybeShadow(x *mat.Matrix, scores []float64, kinds []dataset.Kind) {
	if sh := s.shadow.Load(); sh != nil && sh.sample.sampled() {
		s.shadowScore(sh, x, scores, kinds)
	}
}

// shadowScore runs the candidate over one served pass — rows x, which
// the serving model answered with scores and kinds — and folds the
// comparison into the running stats.
func (s *Server) shadowScore(sh *shadowState, x *mat.Matrix, scores []float64, kinds []dataset.Kind) {
	opt := core.InferOptions{}
	if len(kinds) > 0 {
		if _, ok := sh.model.IdentifyThreshold(s.cfg.Strategy); ok {
			opt.Strategies = []core.OODStrategy{s.cfg.Strategy}
		}
	}
	// The candidate scores at the served generation's precision.
	res, err := s.score(sh.model, x, opt)

	sh.mu.Lock()
	defer sh.mu.Unlock()
	if err != nil {
		sh.errs++
		return
	}
	sh.batches++
	sh.rows += int64(x.Rows)
	for i, old := range scores {
		d := res.Scores[i] - old
		sh.deltaSum += d
		if d < 0 {
			d = -d
		}
		sh.absSum += d
		if d > sh.maxAbs {
			sh.maxAbs = d
		}
	}
	if newKinds, ok := res.Kinds[s.cfg.Strategy]; ok && len(kinds) > 0 {
		for i, k := range newKinds {
			sh.decided++
			if k != kinds[i] {
				sh.flips++
			}
		}
	}
}
