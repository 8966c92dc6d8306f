package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"

	"targad/internal/activelearn"
	"targad/internal/dataset"
	"targad/internal/feedback"
	"targad/internal/mat"
	"targad/internal/obs"
	"targad/internal/wire"
)

// Closing the loop (DESIGN.md §14): POST /feedback records analyst
// verdicts on served decisions; GET /feedback/queue hands the analyst
// the rows whose labels would help the model most; POST /retrain hands
// the accumulated verdicts to the registered RetrainController, which
// fits a candidate and drives it through shadow evaluation to an
// automatic, gated promotion. Only that request starts a cycle: a drift
// alarm is reported on /drift and /metrics, and nothing acts on it.
// The serving hot path pays little for it: acquisition samples passes
// the way shadow evaluation does (tap.go) — one nil check and a
// counter bump on the non-sampled path; a sampled pass is offered on
// the request's handler, and the queue copies a row only when it
// admits it.

// RetrainController is the orchestration the serving layer delegates
// retraining to (implemented by internal/retrain; the interface keeps
// the dependency pointing retrain→serve, never back).
type RetrainController interface {
	// Trigger starts one retrain cycle; an error means none started
	// (already running, no verdicts, no training data).
	Trigger(reason string) error
	// Status reports the controller's current/last cycle, JSON-ready.
	Status() any
	// WriteMetrics writes the controller's Prometheus series.
	WriteMetrics(w *obs.Writer)
}

// retrainBox wraps the interface for atomic.Pointer storage.
type retrainBox struct{ rc RetrainController }

// SetRetrain registers the retrain controller POST /retrain delegates
// to. Called once at wiring time, after New, since the controller
// needs the *Server.
func (s *Server) SetRetrain(rc RetrainController) {
	s.retrain.Store(&retrainBox{rc: rc})
}

func (s *Server) retrainController() RetrainController {
	if b := s.retrain.Load(); b != nil {
		return b.rc
	}
	return nil
}

// feedbackRequest is the POST /feedback JSON body: one analyst verdict
// on one served row.
type feedbackRequest struct {
	// Features is the row exactly as it was served.
	Features []float64 `json:"features"`
	// Score is the served S^tar; Decision the served 3-way call.
	Score    float64 `json:"score"`
	Decision string  `json:"decision,omitempty"`
	// Verdict is the analyst's call: "target", "non-target", or
	// "benign".
	Verdict string `json:"verdict"`
	// TargetType is the analyst-assigned type for target verdicts.
	TargetType int `json:"target_type,omitempty"`
	// ModelVersion is the generation that served the row (0: current).
	ModelVersion int64 `json:"model_version,omitempty"`
}

func (s *Server) handleFeedback(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, false, http.StatusMethodNotAllowed, "POST required", 0)
		return
	}
	store := s.cfg.Feedback
	if store == nil {
		wire.WriteError(w, false, http.StatusNotImplemented, "feedback store not configured (-feedback-dir)", 0)
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req feedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.fail(w, false, s.bodyError(err))
		return
	}
	if len(req.Features) == 0 {
		wire.WriteError(w, false, http.StatusBadRequest, "features must hold at least one value", 0)
		return
	}
	verdict, ok := feedback.ParseVerdict(req.Verdict)
	if !ok {
		wire.WriteError(w, false, http.StatusBadRequest,
			fmt.Sprintf("unknown verdict %q (want target, non-target, or benign)", req.Verdict), 0)
		return
	}
	// Validate against one generation and stamp its version: a row
	// the served model cannot take, or a type outside its target
	// types, would fail every later retrain on these verdicts.
	lm := s.cur.Load()
	if lm == nil {
		wire.WriteError(w, false, http.StatusServiceUnavailable, "no model loaded", 0)
		return
	}
	if dim := lm.model.InputDim(); len(req.Features) != dim {
		wire.WriteError(w, false, http.StatusBadRequest,
			fmt.Sprintf("features hold %d values, the served model takes %d", len(req.Features), dim), 0)
		return
	}
	if m := lm.model.NumTargetTypes(); verdict == feedback.VerdictTarget && (req.TargetType < 0 || req.TargetType >= m) {
		wire.WriteError(w, false, http.StatusBadRequest,
			fmt.Sprintf("target_type %d outside [0,%d)", req.TargetType, m), 0)
		return
	}
	if req.ModelVersion == 0 {
		req.ModelVersion = lm.version
	}
	added, err := store.Append(feedback.Record{
		Features:     req.Features,
		Score:        req.Score,
		Decision:     req.Decision,
		Verdict:      verdict,
		TargetType:   req.TargetType,
		ModelVersion: req.ModelVersion,
	})
	if err != nil {
		wire.WriteError(w, false, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	// The verdict retires the row from acquisition, and a confirmed
	// target sharpens the similarity term for the rows still queued.
	if q := s.cfg.Acquire; q != nil {
		q.Remove(feedback.Fingerprint(req.Features))
		if verdict == feedback.VerdictTarget {
			q.ObserveLabeledTarget(req.Features)
		}
	}
	wire.WriteJSON(w, http.StatusOK, map[string]any{
		"recorded": true,
		"added":    added,
		"verdict":  verdict.String(),
		"stored":   store.Len(),
	})
}

// feedbackQueueResponse is the GET /feedback/queue JSON body.
type feedbackQueueResponse struct {
	Items  []activelearn.Item `json:"items"`
	Depth  int                `json:"depth"`
	Budget int                `json:"budget"`
}

func (s *Server) handleFeedbackQueue(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		wire.WriteError(w, false, http.StatusMethodNotAllowed, "GET required", 0)
		return
	}
	q := s.cfg.Acquire
	if q == nil {
		wire.WriteError(w, false, http.StatusNotImplemented, "acquisition queue not configured (-acquire-budget)", 0)
		return
	}
	n := 16
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			wire.WriteError(w, false, http.StatusBadRequest, "n must be a non-negative integer", 0)
			return
		}
		n = v
	}
	items := q.TopN(n)
	if items == nil {
		items = []activelearn.Item{}
	}
	wire.WriteJSON(w, http.StatusOK, feedbackQueueResponse{Items: items, Depth: q.Len(), Budget: q.Budget()})
}

func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	rc := s.retrainController()
	switch r.Method {
	case http.MethodPost:
		if rc == nil {
			wire.WriteError(w, false, http.StatusNotImplemented, "no retrain controller configured", 0)
			return
		}
		if err := rc.Trigger("manual"); err != nil {
			wire.WriteError(w, false, http.StatusConflict, err.Error(), 0)
			return
		}
		wire.WriteJSON(w, http.StatusAccepted, map[string]any{"started": true, "reason": "manual"})
	case http.MethodGet:
		if rc == nil {
			wire.WriteJSON(w, http.StatusOK, map[string]any{"configured": false})
			return
		}
		wire.WriteJSON(w, http.StatusOK, rc.Status())
	default:
		wire.WriteError(w, false, http.StatusMethodNotAllowed, "GET or POST required", 0)
	}
}

// maybeAcquire offers one served pass to the acquisition queue, row by
// row, when the pass is sampled. The fast path — no queue configured,
// or this pass not sampled — is a nil check plus one counter bump
// under a mutex: zero allocations (scripts/ci.sh pins
// BenchmarkServeScoreWithAcquisition to the plain serve budget). A
// sampled pass is offered on the request's handler; Offer copies a row
// only when it admits it.
func (s *Server) maybeAcquire(lm *loadedModel, x *mat.Matrix, scores []float64, kinds []dataset.Kind) {
	q := s.cfg.Acquire
	if q == nil || !s.acq.sampled() {
		return
	}
	// The acquisition threshold is the S^tar complement of the normal
	// prior k/(m+k): a score at the threshold is the row the served
	// model was least sure about.
	threshold := 1 - lm.model.NormalPrior()
	for i := 0; i < x.Rows; i++ {
		decision := ""
		if len(kinds) > 0 {
			decision = kinds[i].String()
		}
		q.Offer(x.Row(i), scores[i], threshold, decision, lm.version)
	}
}

// writeFeedbackMetrics writes the feedback-loop series: verdict store,
// acquisition queue, and retrain controller.
func (s *Server) writeFeedbackMetrics(w *obs.Writer) {
	if st := s.cfg.Feedback; st != nil {
		frames, dups := st.Stats()
		w.Gauge("targad_feedback_records", "Distinct labeled rows in the verdict store.", float64(st.Len()))
		w.Counter("targad_feedback_frames_total", "Verdict frames ever appended (revisions included).", frames)
		w.Counter("targad_feedback_duplicates_total", "Verdict appends that revised an already-labeled row.", dups)
	}
	if q := s.cfg.Acquire; q != nil {
		qs := q.Stats()
		w.Gauge("targad_acquire_depth", "Rows queued for analyst labeling.", float64(qs.Depth))
		w.Gauge("targad_acquire_budget", "Acquisition queue capacity.", float64(q.Budget()))
		w.Counter("targad_acquire_offered_total", "Rows offered to the acquisition queue.", qs.Offered)
		w.Counter("targad_acquire_admitted_total", "Rows admitted to (or refreshed in) the acquisition queue.", qs.Admitted)
		w.Counter("targad_acquire_evicted_total", "Rows evicted by more informative ones.", qs.Evicted)
	}
	if rc := s.retrainController(); rc != nil {
		rc.WriteMetrics(w)
	}
}
