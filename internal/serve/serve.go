// Package serve is the online scoring service: an HTTP front end over
// a persisted TargAD model (internal/core's gob envelope) built for
// sustained concurrent traffic. Requests carry JSON by default, or the
// binary wire protocol (internal/wire, DESIGN.md §12) when the
// Content-Type is application/x-targad-frame — same scores, near-zero
// per-request garbage.
//
// Architecture (DESIGN.md §8):
//
//   - Requests decode into pooled per-request arenas, and every
//     request scores on its own handler, at most MaxBatch rows per
//     core.Model.Infer pass: a binary frame decodes pass by pass, so
//     its memory is one pass, not the frame. A score depends only on
//     the model and the row, so nothing is pooled across requests.
//   - At most QueueDepth requests score at once; the next is shed with
//     429 and a Retry-After header instead of letting latency grow
//     without bound.
//   - The served model lives behind an atomic pointer. Reload (POST
//     /reload, or SIGHUP in cmd/targad-serve) loads the file into a
//     fresh model and swaps the pointer; requests in flight finish on
//     the model they were admitted on, so a reload under load fails
//     zero requests.
//   - /healthz (liveness), /readyz (model loaded), /metrics
//     (Prometheus text), /debug/vars (expvar), and optional
//     /debug/pprof make the service observable.
package serve

import (
	"context"
	"encoding/json"
	"errors"
	"expvar"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"os"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"targad/internal/activelearn"
	"targad/internal/core"
	"targad/internal/faultinject"
	"targad/internal/feedback"
	"targad/internal/mat"
	"targad/internal/monitor"
	"targad/internal/obs"
	"targad/internal/wire"
)

// Config tunes the service. The zero value of every field has a usable
// default applied by New.
type Config struct {
	// ModelPath is the saved-model file (core.Model.Save) served and
	// re-read on every reload. Tests may leave it empty and install a
	// model with SetModel.
	ModelPath string

	// MaxBatch is the most instance rows one inference pass carries
	// (default 64): a request scores on its handler in passes of at
	// most MaxBatch rows.
	MaxBatch int
	// MaxWait is ignored: no request waits for another.
	//
	// Deprecated: every request scores on its own handler; nothing
	// reads MaxWait.
	MaxWait time.Duration
	// QueueDepth bounds the requests scoring at once; past it a request
	// sheds with 429 (default 256).
	QueueDepth int
	// RetryAfter is advertised on shed responses (default 1s).
	RetryAfter time.Duration
	// MaxBodyBytes bounds a request body (default 32 MiB).
	MaxBodyBytes int64

	// Strategy is the identification strategy applied when a request
	// does not name one (default MSP). If the served model has no
	// calibration for it, decisions are omitted with a warning instead
	// of failing the request.
	Strategy core.OODStrategy

	// Precision selects the numeric inference path (default F64, which
	// stays bitwise-identical to offline scoring). F32 narrows the
	// model parameters once at load and serves on the float32 kernels —
	// several times faster through the GEMM on AVX2 hardware — within
	// the tolerance contract of DESIGN.md's "Numerical precision
	// model". A model whose parameters cannot be narrowed safely (NaN,
	// ±Inf, float32 overflow) is rejected at load with a typed error
	// instead of serving Inf/NaN.
	Precision Precision

	// EnablePprof mounts net/http/pprof under /debug/pprof/.
	EnablePprof bool

	// InstanceID identifies this serving process to fleet probers: it
	// is stamped on /healthz and /readyz as the X-Targad-Instance
	// header, so a router can tell a restarted replica from a live one
	// and re-verify it before trusting it again. Empty generates
	// host-pid-starttime.
	InstanceID string

	// Monitor tunes drift monitoring: window size, ring granularity,
	// and warn/alarm thresholds (zero values take monitor defaults).
	// Monitoring arms per model generation, and only when the served
	// model carries a reference profile (persist format v2); models
	// without one serve unmonitored.
	Monitor monitor.Config
	// DisableMonitor switches drift monitoring off even for models
	// that carry a profile.
	DisableMonitor bool
	// ShadowSample is the fraction of live passes a loaded shadow
	// model re-scores, on the request's handler and counted against
	// QueueDepth (default 0.25; clamped to (0, 1]). Sampling is
	// deterministic (every 1/fraction-th pass), not random.
	ShadowSample float64

	// Feedback, when set, mounts POST /feedback: analyst verdicts on
	// served decisions land in this store (internal/feedback) and feed
	// retraining.
	Feedback *feedback.Store
	// Acquire, when set, mounts GET /feedback/queue and samples served
	// passes into this acquisition queue (internal/activelearn) — the
	// rows whose labels would help the model most.
	Acquire *activelearn.Queue
	// AcquireSample is the fraction of live passes offered to the
	// acquisition queue, on the request's handler (default 0.25;
	// clamped to (0, 1]). Deterministic counter sampling, like
	// ShadowSample.
	AcquireSample float64

	// Logf, when set, receives one line per lifecycle event (load,
	// reload, shutdown). Nil discards.
	Logf func(format string, v ...any)
}

// loadedModel is one immutable generation of the served model. The
// drift accumulator lives here, not on the Server: a reload builds a
// fresh window, so drift statistics never mix traffic scored by
// different model generations.
type loadedModel struct {
	model    *core.Model
	version  int64
	source   string
	loadedAt time.Time
	mon      *monitor.Accumulator // nil = monitoring disabled
}

// Server is the scoring service. Create with New, mount Handler on an
// http.Server, and Close on shutdown.
type Server struct {
	cfg     Config
	cur     atomic.Pointer[loadedModel]
	gen     atomic.Int64
	metrics metrics
	mux     *http.ServeMux

	// slots bounds the requests scoring at once (QueueDepth); a
	// request that finds it full is shed.
	slots chan struct{}

	// done closes when Close marks the server draining.
	done    chan struct{}
	closing sync.Once

	reloadMu sync.Mutex // serializes Reload/SetModel/shadow swaps

	// shadow is the candidate model under evaluation (nil when none);
	// see shadow.go. shadowSeq numbers candidates so promote/discard
	// can be pinned to the one that was measured.
	shadow    atomic.Pointer[shadowState]
	shadowSeq atomic.Int64

	// acq samples served passes for the acquisition queue
	// (feedback.go); retrain holds the registered RetrainController
	// (SetRetrain).
	acq     sampler
	retrain atomic.Pointer[retrainBox]
}

// New builds a Server from cfg, loading the initial model from
// cfg.ModelPath when set.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.ShadowSample <= 0 || cfg.ShadowSample > 1 {
		cfg.ShadowSample = 0.25
	}
	if cfg.AcquireSample <= 0 || cfg.AcquireSample > 1 {
		cfg.AcquireSample = 0.25
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.InstanceID == "" {
		host, _ := os.Hostname()
		if host == "" {
			host = "targad"
		}
		cfg.InstanceID = fmt.Sprintf("%s-%d-%x", host, os.Getpid(), time.Now().UnixNano())
	}
	s := &Server{
		cfg:   cfg,
		slots: make(chan struct{}, cfg.QueueDepth),
		done:  make(chan struct{}),
		acq:   sampler{fraction: cfg.AcquireSample},
	}
	if cfg.ModelPath != "" {
		if _, err := s.Reload(); err != nil {
			return nil, err
		}
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("/score", s.handleScore)
	s.mux.HandleFunc("/reload", s.handleReload)
	s.mux.HandleFunc("/drift", s.handleDrift)
	s.mux.HandleFunc("/feedback", s.handleFeedback)
	s.mux.HandleFunc("/feedback/queue", s.handleFeedbackQueue)
	s.mux.HandleFunc("/retrain", s.handleRetrain)
	s.mux.HandleFunc("/healthz", s.handleHealthz)
	s.mux.HandleFunc("/readyz", s.handleReadyz)
	s.mux.HandleFunc("/metrics", s.handleMetrics)
	s.mux.Handle("/debug/vars", expvar.Handler())
	if cfg.EnablePprof {
		s.mux.HandleFunc("/debug/pprof/", pprof.Index)
		s.mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	}
	return s, nil
}

// Handler returns the service's HTTP routes.
func (s *Server) Handler() http.Handler { return s.mux }

// HandleScore answers one /score request directly, bypassing the mux.
// Embedders that route requests to a Server themselves — the model
// registry dispatches per-tenant — call it so the hot path pays their
// dispatch once, not twice.
func (s *Server) HandleScore(w http.ResponseWriter, r *http.Request) { s.handleScore(w, r) }

// Ready reports whether the server is accepting scoring traffic: a
// model is loaded and the server is not draining.
func (s *Server) Ready() bool {
	return !s.draining() && s.cur.Load() != nil
}

// draining reports whether Close has run.
func (s *Server) draining() bool {
	select {
	case <-s.done:
		return true
	default:
		return false
	}
}

// ModelVersion returns the generation counter of the served model
// (0 when none is loaded).
func (s *Server) ModelVersion() int64 {
	if lm := s.cur.Load(); lm != nil {
		return lm.version
	}
	return 0
}

// SetModel installs m as the served model (tests, or embedders that
// load models themselves) and returns the new generation. In f32 mode
// the model's parameters are narrowed first — a model that cannot be
// narrowed safely is rejected and the current generation keeps
// serving.
func (s *Server) SetModel(m *core.Model, source string) (int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if err := s.intake(m); err != nil {
		return 0, fmt.Errorf("serve: %w", err)
	}
	return s.install(m, source), nil
}

// install publishes m as the next generation and arms its drift
// window. Callers hold reloadMu and have passed m through intake. A
// request admitted on the outgoing generation finishes on it; the GC
// frees it after the last such request.
func (s *Server) install(m *core.Model, source string) int64 {
	v := s.gen.Add(1)
	s.cur.Store(&loadedModel{
		model:    m,
		version:  v,
		source:   source,
		loadedAt: time.Now(),
		mon:      s.newAccumulator(m),
	})
	return v
}

// Reload re-reads cfg.ModelPath and atomically swaps the served model.
// On any failure — unreadable file, bad envelope, injected
// serve/reload-fail fault — the current model keeps serving and the
// error is returned. Requests already in flight finish on the model
// they were admitted on, so a reload under load fails no requests.
func (s *Server) Reload() (int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.cfg.ModelPath == "" {
		return 0, errors.New("serve: no model path configured")
	}
	m, err := s.loadModelFile()
	if err != nil {
		s.metrics.reloadErrs.Add(1)
		return 0, err
	}
	if err := s.intake(m); err != nil {
		s.metrics.reloadErrs.Add(1)
		return 0, fmt.Errorf("serve: reload: %w", err)
	}
	v := s.install(m, s.cfg.ModelPath)
	s.metrics.reloads.Add(1)
	s.cfg.Logf("serve: model v%d loaded from %s (%s)", v, s.cfg.ModelPath, s.cfg.Precision)
	return v, nil
}

func (s *Server) loadModelFile() (*core.Model, error) {
	if faultinject.Fire(faultinject.ServeReloadFail) {
		return nil, errors.New("serve: reload failure injected")
	}
	f, err := os.Open(s.cfg.ModelPath)
	if err != nil {
		return nil, fmt.Errorf("serve: reload: %w", err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		return nil, fmt.Errorf("serve: reload: %w", err)
	}
	return m, nil
}

// Close marks the server draining, so a request that arrives
// afterwards is answered 503. It waits for nothing: the server runs no
// work of its own, so in-flight HTTP handlers are drained by
// http.Server.Shutdown, and one still scoring finishes on its
// generation.
func (s *Server) Close() {
	s.closing.Do(func() { close(s.done) })
}

// ParseStrategy maps the API's strategy names (case-insensitive MSP,
// ES, ED) to the core enum.
func ParseStrategy(name string) (core.OODStrategy, bool) {
	switch strings.ToUpper(strings.TrimSpace(name)) {
	case "MSP":
		return core.MSP, true
	case "ES":
		return core.ES, true
	case "ED":
		return core.ED, true
	default:
		return 0, false
	}
}

// scoreRequest is the /score JSON body.
type scoreRequest struct {
	// Instances is the feature matrix, one row per instance.
	Instances [][]float64 `json:"instances"`
	// Strategy optionally names the identification strategy (MSP, ES,
	// ED); empty uses the server default.
	Strategy string `json:"strategy,omitempty"`
	// Probabilities requests the per-class probability rows.
	Probabilities bool `json:"probabilities,omitempty"`
}

// scoreResponse is the /score JSON answer.
type scoreResponse struct {
	ModelVersion int64 `json:"model_version"`
	// Scores is S^tar per instance (Eq. 9), higher = more likely a
	// target anomaly.
	Scores []float64 `json:"scores"`
	// Decisions is the 3-way call per instance: "normal", "target", or
	// "non-target". Omitted (with a warning) when the served model has
	// no calibration for the strategy.
	Decisions []string `json:"decisions,omitempty"`
	// Probabilities holds m+k class probabilities per instance when
	// requested.
	Probabilities [][]float64 `json:"probabilities,omitempty"`
	Warning       string      `json:"warning,omitempty"`
}

// handleScore answers one /score request from a pooled arena.
func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, false, http.StatusMethodNotAllowed, "POST required", 0)
		return
	}
	a := arenaPool.Get().(*reqArena)
	s.scoreRequest(w, r, a)
	arenaPool.Put(a)
}

// scoreRequest answers one /score request with a as its scratch. JSON
// and binary frames differ only in how the body decodes into the arena
// (decodeJSON, decodeFrame) and how the answer encodes
// (writeScoreResult, writeScoreFrame); everything between — failure
// answers, counting, scoring (scorePasses) — is this one path.
func (s *Server) scoreRequest(w http.ResponseWriter, r *http.Request, a *reqArena) {
	start := time.Now()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	frame := wire.IsFrame(r.Header)
	var err error
	if frame {
		s.metrics.binaryReqs.Add(1)
		err = s.decodeFrame(a, r)
	} else {
		err = s.decodeJSON(a, w, r)
	}
	if err != nil {
		s.fail(w, frame, err)
		return
	}
	s.metrics.requests.Add(1)

	switch err := s.scorePasses(a, r, frame); {
	case errors.Is(err, errShed):
		wire.WriteError(w, frame, http.StatusTooManyRequests, errShed.Error(), s.cfg.RetryAfter)
	case err != nil:
		s.fail(w, frame, err)
	default:
		if frame {
			writeScoreFrame(w, a)
		} else {
			writeScoreResult(w, a)
		}
		s.metrics.requestOK.Add(1)
		s.metrics.observeLatency(time.Since(start))
	}
}

// fail answers a failed request in its protocol, with err's status
// (scoreErrStatus), and counts it: every failure in requestErrs, a 413
// in tooLarge as well.
func (s *Server) fail(w http.ResponseWriter, frame bool, err error) {
	status := scoreErrStatus(err)
	s.metrics.requestErrs.Add(1)
	if status == http.StatusRequestEntityTooLarge {
		s.metrics.tooLarge.Add(1)
	}
	wire.WriteError(w, frame, status, err.Error(), 0)
}

// statusError is a request the server refuses before or while reading
// it — a body that does not decode, a frame cut short — carrying the
// HTTP status of its answer.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

func badRequest(msg string) error { return &statusError{http.StatusBadRequest, msg} }

// decodeJSON reads a JSON /score body into the arena: the rows into
// a.x, the request's options beside them.
func (s *Server) decodeJSON(a *reqArena, w http.ResponseWriter, r *http.Request) error {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var err error
	a.body, err = readAllInto(a.body[:0], r.Body)
	if err == nil {
		// Reset before decode: json.Unmarshal reuses Instances' backing
		// arrays (outer and per-row) when capacity allows.
		a.jreq = scoreRequest{Instances: a.jreq.Instances[:0]}
		err = json.Unmarshal(a.body, &a.jreq)
	}
	if err != nil {
		return s.bodyError(err)
	}
	if a.x, err = instancesMatrixInto(a.x, a.jreq.Instances); err != nil {
		return badRequest(err.Error())
	}
	a.rows = a.x.Rows
	a.strategy, a.strict, a.wantProbs = s.cfg.Strategy, false, a.jreq.Probabilities
	if a.jreq.Strategy != "" {
		st, ok := ParseStrategy(a.jreq.Strategy)
		if !ok {
			return badRequest(fmt.Sprintf("unknown strategy %q (want MSP, ES, or ED)", a.jreq.Strategy))
		}
		a.strategy, a.strict = st, true
	}
	return nil
}

// bodyError maps a failed read or decode of a JSON body: 413 when the
// body ran past MaxBodyBytes, 400 otherwise.
func (s *Server) bodyError(err error) error {
	var mbe *http.MaxBytesError
	if errors.As(err, &mbe) {
		return &statusError{http.StatusRequestEntityTooLarge, fmt.Sprintf("request body exceeds the %d-byte limit", s.cfg.MaxBodyBytes)}
	}
	return badRequest("bad request body: " + err.Error())
}

// scoreErrStatus maps a scoring error to its HTTP status.
func scoreErrStatus(err error) int {
	var se *statusError
	switch {
	case errors.As(err, &se):
		return se.status
	case errors.Is(err, errStrategyNotCalibrated),
		errors.Is(err, core.ErrDimMismatch):
		return http.StatusBadRequest
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client left before its request finished scoring; 499
		// (nginx's client-closed-request) — nobody reads it, but the
		// access log should not claim a server fault.
		return 499
	}
	return http.StatusInternalServerError
}

// writeScoreResult encodes the arena's answer as the JSON response,
// building the decision and probability views in the arena.
func writeScoreResult(w http.ResponseWriter, a *reqArena) {
	out := scoreResponse{ModelVersion: a.version, Scores: a.scores}
	if a.decided {
		a.decisions = ensure(a.decisions, len(a.kinds))
		for i, k := range a.kinds {
			a.decisions[i] = k.String()
		}
		out.Decisions = a.decisions
	} else {
		out.Warning = "decisions omitted: served model has no calibration for the default strategy"
	}
	if a.wantProbs {
		a.probsRows = ensure(a.probsRows, a.probs.Rows)
		for i := range a.probsRows {
			a.probsRows[i] = a.probs.Row(i)
		}
		out.Probabilities = a.probsRows
	}
	wire.WriteJSON(w, http.StatusOK, &out)
}

// readAllInto is io.ReadAll into a recycled buffer.
func readAllInto(dst []byte, r io.Reader) ([]byte, error) {
	for {
		if len(dst) == cap(dst) {
			dst = append(dst, 0)[:len(dst)]
		}
		n, err := r.Read(dst[len(dst):cap(dst)])
		dst = dst[:len(dst)+n]
		if err == io.EOF {
			return dst, nil
		}
		if err != nil {
			return dst, err
		}
	}
}

// instancesMatrixInto validates and packs the request rows into dst
// (grown via mat.Ensure, nil allocates).
func instancesMatrixInto(dst *mat.Matrix, rows [][]float64) (*mat.Matrix, error) {
	if len(rows) == 0 {
		return dst, errors.New("instances must hold at least one row")
	}
	cols := len(rows[0])
	if cols == 0 {
		return dst, errors.New("instances rows must hold at least one feature")
	}
	dst = mat.Ensure(dst, len(rows), cols)
	for i, row := range rows {
		if len(row) != cols {
			return dst, fmt.Errorf("instances row %d has %d features, row 0 has %d", i, len(row), cols)
		}
		copy(dst.Row(i), row)
	}
	return dst, nil
}

func (s *Server) handleReload(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		wire.WriteError(w, false, http.StatusMethodNotAllowed, "POST required", 0)
		return
	}
	// A script written for the removed manual shadow path would
	// otherwise install its candidate as the served model.
	if r.URL.Query().Has("shadow") {
		wire.WriteError(w, false, http.StatusBadRequest,
			"POST /reload?shadow was removed: only a retrain cycle installs a shadow candidate", 0)
		return
	}
	v, err := s.Reload()
	if err != nil {
		wire.WriteError(w, false, http.StatusInternalServerError, err.Error(), 0)
		return
	}
	wire.WriteJSON(w, http.StatusOK, map[string]int64{"model_version": v})
}

// InstanceID returns the identity this process stamps on its health
// endpoints (Config.InstanceID, generated when unset).
func (s *Server) InstanceID() string { return s.cfg.InstanceID }

// setIdentity stamps the instance-identity headers fleet probers read:
// which process answered, and which model generation it serves.
func (s *Server) setIdentity(w http.ResponseWriter) {
	h := w.Header()
	h.Set(wire.HeaderInstance, s.cfg.InstanceID)
	h.Set(wire.HeaderModelVersion, strconv.FormatInt(s.ModelVersion(), 10))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.setIdentity(w)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.setIdentity(w)
	if s.draining() {
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	}
	if s.cur.Load() == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ready\n"))
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	ow := obs.New()
	s.WriteMetrics(ow)
	ow.BuildInfo()
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = ow.WriteTo(w)
}
