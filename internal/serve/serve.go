// Package serve is the online scoring service: an HTTP front end over
// a persisted TargAD model (internal/core's gob envelope) built for
// sustained concurrent traffic. Requests carry JSON by default, or the
// binary wire protocol (internal/wire, DESIGN.md §12) when the
// Content-Type is application/x-targad-frame — same scores, near-zero
// per-request garbage.
//
// Architecture (DESIGN.md §8):
//
//   - Requests decode into pooled per-request arenas and become jobs on
//     a bounded queue. A full queue sheds the request with 429 and a
//     Retry-After header instead of letting latency grow without bound.
//   - A single dispatcher goroutine micro-batches queued jobs — up to
//     MaxBatch rows, waiting at most MaxWait from the first job — into
//     one core.Model.Infer pass, so the blocked GEMM amortizes across
//     concurrent requests. With MaxBatch <= 1 the queue is bypassed and
//     handlers score directly on the replica pool.
//   - The served model lives behind an atomic pointer. Reload (POST
//     /reload, or SIGHUP in cmd/targad-serve) loads the file into a
//     fresh model and swaps the pointer; batches in flight finish on
//     the model they started with, so a reload under load fails zero
//     requests.
//   - /healthz (liveness), /readyz (model loaded), /metrics
//     (Prometheus text), /debug/vars (expvar), and optional
//     /debug/pprof make the service observable.
package serve

import (
	"bytes"
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

	// MaxBatch is the most instance rows one inference pass carries;
	// <= 1 disables micro-batching (default 64).
	MaxBatch int
	// MaxWait bounds how long an incomplete batch waits for more rows
	// after its first job arrives (default 2ms; 0 means "take only
	// what is already queued").
	MaxWait time.Duration
	// QueueDepth bounds the number of queued scoring jobs; a full
	// queue sheds with 429 (default 256).
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
	// DriftDegrade makes /readyz answer 503 while the drift status is
	// alarm, steering load-balancer traffic away from a replica whose
	// inputs no longer match its model.
	DriftDegrade bool
	// ShadowSample is the fraction of live batches a loaded shadow
	// model re-scores in the background (default 0.25; clamped to
	// (0, 1]). Sampling is deterministic (every 1/fraction-th batch),
	// not random.
	ShadowSample float64

	// Feedback, when set, mounts POST /feedback: analyst verdicts on
	// served decisions land in this store (internal/feedback) and feed
	// retraining.
	Feedback *feedback.Store
	// Acquire, when set, mounts GET /feedback/queue and samples served
	// batches into this acquisition queue (internal/activelearn) — the
	// rows whose labels would help the model most.
	Acquire *activelearn.Queue
	// AcquireSample is the fraction of live batches offered to the
	// acquisition queue (default 0.25; clamped to (0, 1]). Deterministic
	// counter sampling, like ShadowSample.
	AcquireSample float64
	// AutoRetrain arms the closed loop: a drift-window alarm triggers
	// the registered retrain controller (SetRetrain) automatically.
	AutoRetrain bool
	// OnDriftAlarm, when set, runs (in its own goroutine) each time a
	// served generation's drift window transitions into alarm.
	OnDriftAlarm func(monitor.Snapshot)

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

	// inflight counts batches scoring on this generation; used only in
	// f32 mode (see precision.go), where a retired generation's
	// parameter buffers are recycled once it drains.
	inflight sync.WaitGroup
}

// Server is the scoring service. Create with New, mount Handler on an
// http.Server, and Close on shutdown.
type Server struct {
	cfg     Config
	cur     atomic.Pointer[loadedModel]
	gen     atomic.Int64
	queue   chan *job
	metrics metrics
	mux     *http.ServeMux
	done    chan struct{}
	wg      sync.WaitGroup
	closing sync.Once

	reloadMu sync.Mutex // serializes Reload/SetModel/shadow swaps

	// Float32-mode generation tracking (precision.go): lmMu closes the
	// load→pin race between batches and installs; retired holds the
	// last swapped-out generation until its float32 parameter buffers
	// are reclaimed on the next reload (guarded by reloadMu).
	lmMu    sync.RWMutex
	retired *loadedModel

	// shadow is the candidate model under evaluation (nil when none);
	// see shadow.go. shadowSeq numbers candidates so promote/discard
	// can be pinned to the one that was measured.
	shadow    atomic.Pointer[shadowState]
	shadowSeq atomic.Int64

	// acq is the acquisition sampler's counter state (feedback.go);
	// retrain holds the registered RetrainController (SetRetrain).
	acq     acquireSampler
	retrain atomic.Pointer[retrainBox]
}

// New builds a Server from cfg, loading the initial model from
// cfg.ModelPath when set, and starts the batching dispatcher.
func New(cfg Config) (*Server, error) {
	if cfg.MaxBatch == 0 {
		cfg.MaxBatch = 64
	}
	if cfg.MaxWait == 0 {
		cfg.MaxWait = 2 * time.Millisecond
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
		queue: make(chan *job, cfg.QueueDepth),
		done:  make(chan struct{}),
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
	s.mux.HandleFunc("/promote", s.handlePromote)
	s.mux.HandleFunc("/discard", s.handleDiscard)
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
	if cfg.MaxBatch > 1 {
		s.wg.Add(1)
		go s.dispatch()
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
	select {
	case <-s.done:
		return false
	default:
	}
	return s.cur.Load() != nil
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
// serving. Installing hands ownership of m to the server: in f32 mode
// its parameter buffers are recycled into a later generation once it
// retires.
func (s *Server) SetModel(m *core.Model, source string) (int64, error) {
	s.reloadMu.Lock()
	defer s.reloadMu.Unlock()
	if s.cfg.Precision == F32 {
		if err := m.EnableF32(s.reclaimSpare32()); err != nil {
			return 0, fmt.Errorf("serve: enable float32: %w", err)
		}
	}
	return s.install(m, source), nil
}

// install swaps m in as the next generation and arms its drift window.
// Callers hold reloadMu; in f32 mode m must already have EnableF32
// applied.
func (s *Server) install(m *core.Model, source string) int64 {
	v := s.gen.Add(1)
	next := &loadedModel{
		model:    m,
		version:  v,
		source:   source,
		loadedAt: time.Now(),
		mon:      s.newAccumulator(m),
	}
	s.armAlarmHook(next)
	if s.cfg.Precision == F32 {
		// The swap happens under lmMu so no batch can pin the outgoing
		// generation after it lands in retired (see precision.go).
		s.lmMu.Lock()
		s.retired = s.cur.Load()
		s.cur.Store(next)
		s.lmMu.Unlock()
	} else {
		s.cur.Store(next)
	}
	return v
}

// Reload re-reads cfg.ModelPath and atomically swaps the served model.
// On any failure — unreadable file, bad envelope, injected
// serve/reload-fail fault — the current model keeps serving and the
// error is returned. Batches already in flight finish on the model
// they captured, so a reload under load fails no requests.
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
	if s.cfg.Precision == F32 {
		if err := m.EnableF32(s.reclaimSpare32()); err != nil {
			s.metrics.reloadErrs.Add(1)
			return 0, fmt.Errorf("serve: reload: enable float32: %w", err)
		}
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

// Close stops the dispatcher and fails still-queued jobs. In-flight
// HTTP handlers should be drained first (http.Server.Shutdown); Close
// then releases anything still waiting on the queue.
func (s *Server) Close() {
	s.closing.Do(func() {
		close(s.done)
		s.wg.Wait()
		s.drainQueue()
	})
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

type errorResponse struct {
	Error string `json:"error"`
}

// jsonWriter is a pooled encode buffer: one json.Encoder bound to one
// bytes.Buffer, so writeJSON never rebuilds encoder state per response.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	return jw
}}

func writeJSON(w http.ResponseWriter, status int, v any) {
	jw := jsonPool.Get().(*jsonWriter)
	jw.buf.Reset()
	if err := jw.enc.Encode(v); err != nil {
		jw.buf.Reset()
		fmt.Fprintf(&jw.buf, "{\"error\":%q}\n", err.Error())
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(jw.buf.Bytes())
	jsonPool.Put(jw)
}

func (s *Server) handleScore(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	start := time.Now()
	s.metrics.inFlight.Add(1)
	defer s.metrics.inFlight.Add(-1)

	if strings.HasPrefix(r.Header.Get("Content-Type"), wire.ContentType) {
		s.handleScoreBinary(w, r, start)
		return
	}

	a := acquireArena()
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	var err error
	a.body, err = readAllInto(a.body[:0], r.Body)
	if err != nil {
		releaseArena(a)
		s.metrics.requestErrs.Add(1)
		var mbe *http.MaxBytesError
		if errors.As(err, &mbe) {
			s.metrics.tooLarge.Add(1)
			writeJSON(w, http.StatusRequestEntityTooLarge,
				errorResponse{Error: fmt.Sprintf("request body exceeds the %d-byte limit", s.cfg.MaxBodyBytes)})
			return
		}
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	// Reset before decode: json.Unmarshal reuses Instances' backing
	// arrays (outer and per-row) when capacity allows.
	a.jreq.Instances = a.jreq.Instances[:0]
	a.jreq.Strategy = ""
	a.jreq.Probabilities = false
	if err := json.Unmarshal(a.body, &a.jreq); err != nil {
		releaseArena(a)
		s.metrics.requestErrs.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad request body: " + err.Error()})
		return
	}
	a.x, err = instancesMatrixInto(a.x, a.jreq.Instances)
	if err != nil {
		releaseArena(a)
		s.metrics.requestErrs.Add(1)
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
		return
	}
	strat := s.cfg.Strategy
	strict := false
	if a.jreq.Strategy != "" {
		st, ok := ParseStrategy(a.jreq.Strategy)
		if !ok {
			msg := fmt.Sprintf("unknown strategy %q (want MSP, ES, or ED)", a.jreq.Strategy)
			releaseArena(a)
			s.metrics.requestErrs.Add(1)
			writeJSON(w, http.StatusBadRequest, errorResponse{Error: msg})
			return
		}
		strat, strict = st, true
	}
	s.metrics.requests.Add(1)

	j := &a.j
	j.ctx = r.Context()
	j.x, j.x32 = a.x, nil
	j.identify = true
	j.strict = strict
	j.strategy = strat
	j.probs = a.jreq.Probabilities
	j.arena = a

	res, ok, recycle := s.awaitScore(j, w, r, false)
	if !ok {
		if recycle {
			releaseArena(a)
		}
		return
	}
	s.writeScoreResult(w, a, res, start)
	releaseArena(a)
}

// awaitScore runs one job through the dispatcher (or directly when
// batching is off) and returns its result. ok=false means no result:
// the request was already answered (shed, draining) or the client
// left; recycle reports whether the job's arena may safely re-enter
// the pool — false whenever the dispatcher might still touch it.
func (s *Server) awaitScore(j *job, w http.ResponseWriter, r *http.Request, binary bool) (jobResult, bool, bool) {
	if s.cfg.MaxBatch > 1 {
		select {
		case s.queue <- j:
		default:
			s.metrics.shed.Add(1)
			w.Header().Set("Retry-After", strconv.Itoa(int((s.cfg.RetryAfter+time.Second-1)/time.Second)))
			if binary {
				writeWireError(w, http.StatusTooManyRequests, "scoring queue full, retry later")
			} else {
				writeJSON(w, http.StatusTooManyRequests, errorResponse{Error: "scoring queue full, retry later"})
			}
			return jobResult{}, false, true
		}
		select {
		case res := <-j.resp:
			return res, true, true
		case <-r.Context().Done():
			// The client is gone; the dispatcher's buffered send still
			// completes, and the arena stays out of the pool because the
			// dispatcher may still be writing into it.
			return jobResult{}, false, false
		case <-s.done:
			if binary {
				writeWireError(w, http.StatusServiceUnavailable, errDraining.Error())
			} else {
				writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: errDraining.Error()})
			}
			return jobResult{}, false, false
		}
	}
	if j.arena != nil {
		s.runBatch(j.arena.jobs[:1])
	} else {
		s.runBatch([]*job{j})
	}
	return <-j.resp, true, true
}

// scoreErrStatus maps a scoring error to its HTTP status, shared by
// the JSON and binary response writers.
func scoreErrStatus(err error) int {
	switch {
	case errors.Is(err, errStrategyNotCalibrated):
		return http.StatusBadRequest
	case errors.Is(err, errDraining):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		// The client left before its job dispatched; 499 (nginx's
		// client-closed-request) — nobody reads it, but the access log
		// should not claim a server fault.
		return 499
	case strings.Contains(err.Error(), "input dim"),
		strings.Contains(err.Error(), "instance width"):
		return http.StatusBadRequest
	}
	return http.StatusInternalServerError
}

// writeScoreResult maps one jobResult to the JSON response, building
// the decision and probability views in the request arena, and records
// request metrics.
func (s *Server) writeScoreResult(w http.ResponseWriter, a *reqArena, res jobResult, start time.Time) {
	if res.err != nil {
		s.metrics.requestErrs.Add(1)
		writeJSON(w, scoreErrStatus(res.err), errorResponse{Error: res.err.Error()})
		return
	}
	out := scoreResponse{ModelVersion: res.version, Scores: res.scores}
	if res.kinds != nil {
		a.decisions = ensureStrings(a.decisions, len(res.kinds))
		for i, k := range res.kinds {
			a.decisions[i] = k.String()
		}
		out.Decisions = a.decisions
	} else {
		out.Warning = "decisions omitted: served model has no calibration for the default strategy"
	}
	if res.probs != nil {
		a.probsRows = ensureRows(a.probsRows, res.probs.Rows)
		for i := range a.probsRows {
			a.probsRows[i] = res.probs.Row(i)
		}
		out.Probabilities = a.probsRows
	}
	s.metrics.requestOK.Add(1)
	s.metrics.observeLatency(time.Since(start))
	writeJSON(w, http.StatusOK, &out)
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
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "POST required"})
		return
	}
	if q := r.URL.Query().Get("shadow"); q == "1" || strings.EqualFold(q, "true") {
		source, err := s.ShadowLoad()
		if err != nil {
			writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{"shadow": true, "source": source})
		return
	}
	v, err := s.Reload()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, errorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, map[string]int64{"model_version": v})
}

// InstanceID returns the identity this process stamps on its health
// endpoints (Config.InstanceID, generated when unset).
func (s *Server) InstanceID() string { return s.cfg.InstanceID }

// setIdentity stamps the instance-identity headers fleet probers read:
// which process answered, and which model generation it serves.
func (s *Server) setIdentity(w http.ResponseWriter) {
	h := w.Header()
	h.Set("X-Targad-Instance", s.cfg.InstanceID)
	h.Set("X-Targad-Model-Version", strconv.FormatInt(s.ModelVersion(), 10))
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.setIdentity(w)
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	s.setIdentity(w)
	select {
	case <-s.done:
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	default:
	}
	lm := s.cur.Load()
	if lm == nil {
		http.Error(w, "no model loaded", http.StatusServiceUnavailable)
		return
	}
	if s.cfg.DriftDegrade && lm.mon != nil {
		if snap := lm.mon.Snapshot(); snap.Status == monitor.StatusAlarm {
			http.Error(w, fmt.Sprintf("drift alarm: max feature PSI %.3f, score PSI %.3f, mix TV %.3f",
				snap.MaxPSI, snap.ScorePSI, snap.MixTV), http.StatusServiceUnavailable)
			return
		}
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
