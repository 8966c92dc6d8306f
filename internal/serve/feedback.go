package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"

	"targad/internal/activelearn"
	"targad/internal/dataset"
	"targad/internal/feedback"
	"targad/internal/mat"
	"targad/internal/monitor"
	"targad/internal/obs"
)

// Closing the loop (DESIGN.md §14): POST /feedback records analyst
// verdicts on served decisions; GET /feedback/queue hands the analyst
// the rows whose labels would help the model most; POST /retrain (or a
// drift-window alarm, when AutoRetrain is set) hands the accumulated
// verdicts to the registered RetrainController, which fits a candidate
// and drives it through shadow evaluation to an automatic, gated
// promotion. The serving hot path pays for none of it: acquisition
// sampling mirrors the shadow sampler — one nil check on the
// non-sampled path, pooled copies on the sampled one.

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

// SetRetrain registers the retrain controller POST /retrain and the
// AutoRetrain alarm hook delegate to. Called once at wiring time
// (after New, since the controller needs the *Server); the alarm hook
// reads it at fire time, so the order is safe.
func (s *Server) SetRetrain(rc RetrainController) {
	s.retrain.Store(&retrainBox{rc: rc})
}

func (s *Server) retrainController() RetrainController {
	if b := s.retrain.Load(); b != nil {
		return b.rc
	}
	return nil
}

// armAlarmHook connects a freshly installed generation's drift window
// to the closed loop: on the transition into alarm, notify
// Config.OnDriftAlarm and (with AutoRetrain) trigger the controller.
func (s *Server) armAlarmHook(lm *loadedModel) {
	if lm.mon == nil || (s.cfg.OnDriftAlarm == nil && !s.cfg.AutoRetrain) {
		return
	}
	version := lm.version
	lm.mon.SetAlarmHook(0, func(snap monitor.Snapshot) {
		s.cfg.Logf("serve: drift alarm on model v%d (max feature PSI %.3f, score PSI %.3f, mix TV %.3f)",
			version, snap.MaxPSI, snap.ScorePSI, snap.MixTV)
		if s.cfg.OnDriftAlarm != nil {
			s.cfg.OnDriftAlarm(snap)
		}
		if s.cfg.AutoRetrain {
			rc := s.retrainController()
			if rc == nil {
				s.cfg.Logf("serve: auto-retrain skipped: no retrain controller registered")
				return
			}
			if err := rc.Trigger("drift-alarm"); err != nil {
				s.cfg.Logf("serve: auto-retrain not started: %v", err)
			}
		}
	})
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
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	store := s.cfg.Feedback
	if store == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "feedback store not configured (-feedback-dir)"})
		return
	}
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var req feedbackRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		s.metrics.requestErrs.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	if len(req.Features) == 0 {
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "features must hold at least one value"})
		return
	}
	verdict, ok := feedback.ParseVerdict(req.Verdict)
	if !ok {
		writeJSON(w, http.StatusBadRequest,
			errorResponse{Error: fmt.Sprintf("unknown verdict %q (want target, non-target, or benign)", req.Verdict)})
		return
	}
	if req.ModelVersion == 0 {
		req.ModelVersion = s.ModelVersion()
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
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
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
	writeJSON(w, http.StatusOK, map[string]any{
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
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	q := s.cfg.Acquire
	if q == nil {
		writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "acquisition queue not configured (-acquire-budget)"})
		return
	}
	n := 16
	if raw := r.URL.Query().Get("n"); raw != "" {
		v, err := strconv.Atoi(raw)
		if err != nil || v < 0 {
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: "n must be a non-negative integer"})
			return
		}
		n = v
	}
	items := q.TopN(n)
	if items == nil {
		items = []activelearn.Item{}
	}
	writeJSON(w, http.StatusOK, feedbackQueueResponse{Items: items, Depth: q.Len(), Budget: q.Budget()})
}

func (s *Server) handleRetrain(w http.ResponseWriter, r *http.Request) {
	rc := s.retrainController()
	switch r.Method {
	case http.MethodPost:
		if rc == nil {
			writeJSON(w, http.StatusNotImplemented, errorResponse{Error: "no retrain controller configured (-auto-retrain wiring)"})
			return
		}
		if err := rc.Trigger("manual"); err != nil {
			writeJSON(w, http.StatusConflict, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusAccepted, map[string]any{"started": true, "reason": "manual"})
	case http.MethodGet:
		if rc == nil {
			writeJSON(w, http.StatusOK, map[string]any{"configured": false})
			return
		}
		writeJSON(w, http.StatusOK, rc.Status())
	default:
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET or POST required"})
	}
}

// acquireSampler is the deterministic batch-sampling counter for the
// acquisition queue — the same every-1/fraction-th-batch scheme as the
// shadow sampler, with its own phase.
type acquireSampler struct {
	mu  sync.Mutex
	acc float64
}

// acquireBatch is one sampled batch copied out of the request path
// before its arena can recycle (same contract as shadowBatch).
type acquireBatch struct {
	x        *mat.Matrix
	x32      *mat.Matrix32
	is32     bool
	scores   []float64
	kinds    []dataset.Kind
	hasKinds bool
	rowBuf   []float64 // widening scratch for f32 rows

	threshold float64
	version   int64
}

var acquireBatchPool = sync.Pool{New: func() any { return new(acquireBatch) }}

// maybeAcquire samples one served batch into the acquisition queue.
// The fast path — no queue configured, or this batch not sampled — is
// a nil check plus one counter bump under a mutex: zero allocations
// (scripts/ci.sh pins BenchmarkServeScoreWithAcquisition to the plain
// serve budget). A sampled batch is copied into pooled buffers
// synchronously; the Offer calls run in the background.
func (s *Server) maybeAcquire(lm *loadedModel, x *mat.Matrix, x32 *mat.Matrix32, scores []float64, kinds []dataset.Kind) {
	q := s.cfg.Acquire
	if q == nil {
		return
	}
	select {
	case <-s.done:
		return
	default:
	}
	s.acq.mu.Lock()
	s.acq.acc += s.cfg.AcquireSample
	take := s.acq.acc >= 1
	if take {
		s.acq.acc--
	}
	s.acq.mu.Unlock()
	if !take {
		return
	}
	ab := acquireBatchPool.Get().(*acquireBatch)
	ab.is32 = x32 != nil
	if ab.is32 {
		ab.x32 = mat.Ensure32(ab.x32, x32.Rows, x32.Cols)
		copy(ab.x32.Data, x32.Data)
	} else {
		ab.x = mat.Ensure(ab.x, x.Rows, x.Cols)
		copy(ab.x.Data, x.Data)
	}
	ab.scores = append(ab.scores[:0], scores...)
	ab.hasKinds = kinds != nil
	if ab.hasKinds {
		ab.kinds = append(ab.kinds[:0], kinds...)
	}
	// The acquisition threshold is the S^tar complement of the normal
	// prior k/(m+k): a score at the threshold is the row the served
	// model was least sure about.
	ab.threshold = 1 - lm.model.NormalPrior()
	ab.version = lm.version
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		s.offerBatch(q, ab)
		acquireBatchPool.Put(ab)
	}()
}

// offerBatch feeds one copied batch into the queue row by row.
func (s *Server) offerBatch(q *activelearn.Queue, ab *acquireBatch) {
	var rows int
	if ab.is32 {
		rows = ab.x32.Rows
	} else {
		rows = ab.x.Rows
	}
	for i := 0; i < rows; i++ {
		var row []float64
		if ab.is32 {
			src := ab.x32.Row(i)
			if cap(ab.rowBuf) < len(src) {
				ab.rowBuf = make([]float64, len(src))
			}
			row = ab.rowBuf[:len(src)]
			for j, v := range src {
				row[j] = float64(v)
			}
		} else {
			row = ab.x.Row(i)
		}
		decision := ""
		if ab.hasKinds {
			decision = ab.kinds[i].String()
		}
		q.Offer(row, ab.scores[i], ab.threshold, decision, ab.version)
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
