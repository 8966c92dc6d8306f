// Package retrain closes the feedback loop: it turns accumulated
// analyst verdicts (internal/feedback) into a retrained candidate
// model and drives that candidate through the serving layer's shadow
// evaluation to an automatic, gated promotion — zero human steps
// between "start a cycle" (POST /retrain, the only trigger) and "a
// model fitted on the corrected labels is serving".
//
// One cycle:
//
//  1. Snapshot the verdict store. Then, holding the fit slot
//     (Config.FitSlot) when one is shared, load the base training set
//     and merge the verdicts into it with core.MergeFeedback
//     (deterministic ordering, so the fit is bitwise-reproducible
//     offline).
//  2. Warm-start core.Model.Fit from the serving model's classifier
//     parameters, in a background goroutine under the orchestrator's
//     context (the checkpoint machinery applies when Fit.Checkpoint is
//     configured). The candidate is the fitted model's saved bytes,
//     loaded back (Model.Save, core.Load): the form a restart serves,
//     with none of Fit's training state. When Fit returns, the base
//     and merged sets and the fitted model are dropped and the heap is
//     handed back to the OS (debug.FreeOSMemory), then the slot is
//     released, so the replica's resident size falls back before the
//     shadow wait.
//  3. Install the candidate as a shadow (never touching live traffic),
//     wait for it to re-score at least MinShadowRows sampled rows,
//     then gate on decision-flip rate and mean |score delta|.
//  4. Promote on pass — post-promotion scoring is bitwise-identical to
//     the shadow's, because promotion installs the same model object,
//     and to a restart's, because that object is what the promoted
//     file loads — or discard on fail, leaving the old model serving.
//
// The orchestrator implements serve.RetrainController; wiring is
// serve.New → retrain.New(srv, cfg) → srv.SetRetrain(o), done in one
// place for every served model by registry.OpenStack.
package retrain

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"targad/internal/atomicfile"
	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/feedback"
	"targad/internal/obs"
	"targad/internal/serve"
)

// Control is what the orchestrator needs from the serving layer;
// *serve.Server satisfies it. The interface keeps the dependency
// pointing retrain→serve only.
type Control interface {
	CurrentModel() *core.Model
	ShadowModel(m *core.Model, source string) (int64, error)
	ShadowStats() (serve.ShadowReport, bool)
	PromoteShadow(id int64) (int64, error)
	DiscardShadow(id int64) error
}

// The wiring contract, checked at compile time: the serving layer
// satisfies Control, and the orchestrator plugs into SetRetrain.
var (
	_ Control                 = (*serve.Server)(nil)
	_ serve.RetrainController = (*Orchestrator)(nil)
)

// Errors Trigger answers without starting a cycle.
var (
	// ErrBusy: a cycle is already running; at most one at a time.
	ErrBusy = errors.New("retrain: a retrain cycle is already running")
	// ErrNoVerdicts: fewer verdicts than Config.MinVerdicts.
	ErrNoVerdicts = errors.New("retrain: not enough verdicts to retrain on")
	// ErrClosed: the orchestrator was shut down.
	ErrClosed = errors.New("retrain: orchestrator closed")
)

// Config tunes one orchestrator. Store and Train are required.
type Config struct {
	// Store is the verdict store merged into each retraining set.
	Store *feedback.Store
	// Train loads the base training set (D_L and D_U as of the last
	// full fit). Called once per cycle; must return equivalent data on
	// every call for retrains to be reproducible.
	Train func() (*dataset.TrainSet, error)
	// Fit is the training configuration for candidates; WarmStart is
	// filled in from the serving model each cycle. Set Fit.Checkpoint
	// to make candidate fits crash-resumable.
	Fit core.Config
	// Seed seeds candidate fits (deterministic; the offline
	// reproduction of a promoted model reuses it).
	Seed int64

	// TargetRepeat is the verdict weight for confirmed targets
	// (core.VerdictBatch.TargetRepeat; default 1).
	TargetRepeat int
	// MinVerdicts gates Trigger: fewer stored verdicts than this answer
	// ErrNoVerdicts (default 1).
	MinVerdicts int
	// FeedbackTTL, when positive, drops verdicts older than this at
	// merge time (feedback.Store.SnapshotWithTTL): an analyst call made
	// against traffic the world has drifted past decays out of
	// retraining instead of anchoring the candidate to stale labels.
	// The expiry is deterministic and order-stable, so a TTL'd cycle is
	// exactly as reproducible offline as a full one — given the same
	// merge wall-clock. 0 keeps every verdict forever.
	FeedbackTTL time.Duration

	// FitSlot, when set, is a shared fit-serialization semaphore (a
	// buffered channel, typically cap 1): the cycle acquires a slot
	// before it loads the base set and releases it once Fit has
	// returned and its memory has been handed back, before the shadow
	// wait. A registry hosting N tenants hands every orchestrator the
	// same slot so N retrain requests cannot fork N concurrent Fits
	// and a queued tenant holds no training data, while one tenant's
	// shadow evaluation overlaps the next tenant's fit. Nil fits
	// without queueing.
	FitSlot chan struct{}

	// MinShadowRows is how many sampled rows the candidate must
	// re-score before the gate is judged (default 128).
	MinShadowRows int64
	// MaxFlipRate and MaxScoreDelta are the promotion gate: the
	// candidate must flip at most this fraction of sampled decisions
	// and move the mean |S^tar| by at most this much (defaults 0.2 and
	// 0.15). A candidate retrained on drifted labels is EXPECTED to
	// move scores — these bounds catch a fit that went off the rails,
	// not ordinary adaptation; raise them when verdicts contradict the
	// served model wholesale.
	MaxFlipRate   float64
	MaxScoreDelta float64
	// ShadowTimeout bounds the shadow-evaluation wait; on expiry the
	// candidate is discarded (default 2m).
	ShadowTimeout time.Duration
	// Poll is the shadow-stats polling cadence (default 25ms).
	Poll time.Duration

	// SavePath, when set, persists each promoted candidate there
	// (atomicfile.Write) so a restart reloads the retrained model.
	SavePath string

	// Logf receives one line per lifecycle event. Nil discards.
	Logf func(format string, v ...any)
	// OnDone, when set, receives each cycle's Result (tests
	// synchronize on it).
	OnDone func(Result)
}

// Result is one finished cycle.
type Result struct {
	Reason     string    `json:"reason"`
	StartedAt  time.Time `json:"started_at"`
	FinishedAt time.Time `json:"finished_at"`
	Verdicts   int       `json:"verdicts"`

	// Outcome: promoted, gate-failed, fit-error, no-verdicts,
	// shadow-timeout, superseded, or canceled.
	Outcome string `json:"outcome"`

	PromotedVersion int64   `json:"promoted_version,omitempty"`
	ShadowID        int64   `json:"shadow_id,omitempty"`
	ShadowRows      int64   `json:"shadow_rows,omitempty"`
	FlipRate        float64 `json:"flip_rate,omitempty"`
	MeanAbsDelta    float64 `json:"mean_abs_delta,omitempty"`
	Err             string  `json:"error,omitempty"`
}

// Orchestrator runs at most one retrain cycle at a time. Create with
// New, register on the server with serve.Server.SetRetrain, Close on
// shutdown.
type Orchestrator struct {
	ctrl Control
	cfg  Config

	ctx    context.Context
	cancel context.CancelFunc
	wg     sync.WaitGroup

	running atomic.Bool
	mu      sync.Mutex
	last    *Result

	attempts  atomic.Int64
	promoted  atomic.Int64
	gateFails atomic.Int64
	fitErrs   atomic.Int64
	timeouts  atomic.Int64
}

// New builds an orchestrator over the serving control surface.
func New(ctrl Control, cfg Config) (*Orchestrator, error) {
	if ctrl == nil {
		return nil, errors.New("retrain: nil control")
	}
	if cfg.Store == nil {
		return nil, errors.New("retrain: Config.Store is required")
	}
	if cfg.Train == nil {
		return nil, errors.New("retrain: Config.Train is required")
	}
	if cfg.TargetRepeat <= 0 {
		cfg.TargetRepeat = 1
	}
	if cfg.MinVerdicts <= 0 {
		cfg.MinVerdicts = 1
	}
	if cfg.MinShadowRows <= 0 {
		cfg.MinShadowRows = 128
	}
	if cfg.MaxFlipRate <= 0 {
		cfg.MaxFlipRate = 0.2
	}
	if cfg.MaxScoreDelta <= 0 {
		cfg.MaxScoreDelta = 0.15
	}
	if cfg.ShadowTimeout <= 0 {
		cfg.ShadowTimeout = 2 * time.Minute
	}
	if cfg.Poll <= 0 {
		cfg.Poll = 25 * time.Millisecond
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	ctx, cancel := context.WithCancel(context.Background())
	return &Orchestrator{ctrl: ctrl, cfg: cfg, ctx: ctx, cancel: cancel}, nil
}

// Trigger starts one cycle in the background; the error reports why
// none started. Implements serve.RetrainController.
func (o *Orchestrator) Trigger(reason string) error {
	select {
	case <-o.ctx.Done():
		return ErrClosed
	default:
	}
	if n := o.cfg.Store.LenWithTTL(time.Now(), o.cfg.FeedbackTTL); n < o.cfg.MinVerdicts {
		return fmt.Errorf("%w: have %d live, want %d", ErrNoVerdicts, n, o.cfg.MinVerdicts)
	}
	if !o.running.CompareAndSwap(false, true) {
		return ErrBusy
	}
	o.attempts.Add(1)
	o.wg.Add(1)
	go func() {
		defer o.wg.Done()
		o.runCycle(reason)
	}()
	return nil
}

// Status reports whether a cycle is running plus the last finished
// Result. Implements serve.RetrainController.
func (o *Orchestrator) Status() any {
	o.mu.Lock()
	last := o.last
	o.mu.Unlock()
	return map[string]any{
		"configured":  true,
		"running":     o.running.Load(),
		"attempts":    o.attempts.Load(),
		"last_result": last,
	}
}

// WriteMetrics writes the targad_retrain_* series. Implements
// serve.RetrainController.
func (o *Orchestrator) WriteMetrics(w *obs.Writer) {
	w.Counter("targad_retrain_attempts_total", "Retrain cycles started.", o.attempts.Load())
	w.Counter("targad_retrain_promoted_total", "Retrain cycles that promoted their candidate.", o.promoted.Load())
	w.Counter("targad_retrain_gate_failures_total", "Candidates discarded by the promotion gate.", o.gateFails.Load())
	w.Counter("targad_retrain_fit_errors_total", "Retrain cycles whose Fit failed.", o.fitErrs.Load())
	w.Counter("targad_retrain_shadow_timeouts_total", "Candidates discarded because shadow evaluation timed out.", o.timeouts.Load())
	w.Gauge("targad_retrain_in_progress", "1 while a retrain cycle is running.", obs.Bool(o.running.Load()))
}

// Close cancels any running cycle and waits for it to unwind.
func (o *Orchestrator) Close() {
	o.cancel()
	o.wg.Wait()
}

// BuildVerdictBatch converts stored verdicts into a merge batch, in
// store (first-seen) order so the merged set — and therefore the fit —
// is reproducible from the store alone: target verdicts extend D_L
// with their analyst-assigned type; non-target and benign verdicts
// extend D_U carrying their verdict-implied kind.
func BuildVerdictBatch(recs []feedback.Record, targetRepeat int) core.VerdictBatch {
	vb := core.VerdictBatch{TargetRepeat: targetRepeat}
	for _, rec := range recs {
		switch rec.Verdict {
		case feedback.VerdictTarget:
			vb.TargetRows = append(vb.TargetRows, rec.Features)
			vb.TargetTypes = append(vb.TargetTypes, rec.TargetType)
		case feedback.VerdictNonTarget:
			vb.UnlabeledRows = append(vb.UnlabeledRows, rec.Features)
			vb.UnlabeledKinds = append(vb.UnlabeledKinds, dataset.KindNonTarget)
		case feedback.VerdictBenign:
			vb.UnlabeledRows = append(vb.UnlabeledRows, rec.Features)
			vb.UnlabeledKinds = append(vb.UnlabeledKinds, dataset.KindNormal)
		}
	}
	return vb
}

// runCycle is one retrain → shadow → gate pass; it owns the running
// flag.
func (o *Orchestrator) runCycle(reason string) {
	res := Result{Reason: reason, StartedAt: time.Now()}
	defer func() {
		res.FinishedAt = time.Now()
		o.mu.Lock()
		o.last = &res
		o.mu.Unlock()
		o.running.Store(false)
		o.cfg.Logf("retrain: cycle (%s) finished: %s", reason, res.Outcome)
		if o.cfg.OnDone != nil {
			o.cfg.OnDone(res)
		}
	}()

	fail := func(outcome string, err error) {
		res.Outcome = outcome
		if err != nil {
			res.Err = err.Error()
		}
	}

	recs := o.cfg.Store.SnapshotWithTTL(time.Now(), o.cfg.FeedbackTTL)
	res.Verdicts = len(recs)
	o.cfg.Logf("retrain: cycle started (%s): %d verdicts", reason, len(recs))
	if len(recs) < o.cfg.MinVerdicts {
		// The TTL can expire the verdicts between the Trigger gate and
		// the merge; a cycle with nothing to learn from is a no-op, not
		// a fit on the unmodified base set.
		fail("no-verdicts", fmt.Errorf("%w: %d live after expiry, want %d", ErrNoVerdicts, len(recs), o.cfg.MinVerdicts))
		return
	}

	m, err := o.fitCandidate(recs)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			fail("canceled", err)
			return
		}
		o.fitErrs.Add(1)
		fail("fit-error", err)
		return
	}

	id, err := o.ctrl.ShadowModel(m, "retrain:"+reason)
	if err != nil {
		o.fitErrs.Add(1)
		fail("fit-error", fmt.Errorf("install shadow: %w", err))
		return
	}
	res.ShadowID = id

	st, outcome, err := o.awaitShadow(id)
	res.ShadowRows = st.Rows
	res.FlipRate = st.FlipRate
	res.MeanAbsDelta = st.MeanAbsDelta
	if outcome != "" {
		if outcome == "shadow-timeout" {
			o.timeouts.Add(1)
			_ = o.ctrl.DiscardShadow(id)
		}
		fail(outcome, err)
		return
	}

	if st.FlipRate > o.cfg.MaxFlipRate || st.MeanAbsDelta > o.cfg.MaxScoreDelta {
		o.gateFails.Add(1)
		_ = o.ctrl.DiscardShadow(id)
		fail("gate-failed", fmt.Errorf(
			"retrain: candidate %d failed the gate: flip rate %.4f (max %.4f), mean |Δscore| %.6f (max %.6f) over %d rows",
			id, st.FlipRate, o.cfg.MaxFlipRate, st.MeanAbsDelta, o.cfg.MaxScoreDelta, st.Rows))
		return
	}

	v, err := o.ctrl.PromoteShadow(id)
	if err != nil {
		fail("superseded", err)
		return
	}
	o.promoted.Add(1)
	res.Outcome = "promoted"
	res.PromotedVersion = v
	o.cfg.Logf("retrain: candidate %d promoted to v%d (flip rate %.4f, mean |Δscore| %.6f, %d shadow rows)",
		id, v, st.FlipRate, st.MeanAbsDelta, st.Rows)
	if o.cfg.SavePath != "" {
		if err := atomicfile.Write(o.cfg.SavePath, m.Save); err != nil {
			o.cfg.Logf("retrain: persisting promoted model: %v", err)
			res.Err = err.Error()
		}
	}
}

// releaseMemory returns the freed heap to the operating system. It is
// a variable only so tests can count the calls.
var releaseMemory = debug.FreeOSMemory

// fitCandidate is the cycle's expensive stage: it loads the base set,
// merges the verdicts and fits a candidate, all under the fit slot, so
// a cycle queued behind another tenant's fit holds no training data.
// Once a Fit has run, the base and merged sets and the fitted model are
// unreachable and the heap is handed back to the OS before the slot is
// released: the retrain's working memory would otherwise stay resident
// through the shadow wait and beyond. A canceled slot wait or Fit
// returns an error wrapping context.Canceled.
func (o *Orchestrator) fitCandidate(recs []feedback.Record) (*core.Model, error) {
	if o.cfg.FitSlot != nil {
		select {
		case o.cfg.FitSlot <- struct{}{}:
			defer func() { <-o.cfg.FitSlot }()
		case <-o.ctx.Done():
			return nil, o.ctx.Err()
		}
	}
	m, fitted, err := o.fit(recs)
	if fitted {
		releaseMemory()
	}
	return m, err
}

// fit is fitCandidate's body; the base and merged sets and the fitted
// model live in its frame only. It returns the model the fitted one's
// saved bytes load. fitted reports whether Fit ran.
func (o *Orchestrator) fit(recs []feedback.Record) (m *core.Model, fitted bool, err error) {
	base, err := o.cfg.Train()
	if err != nil {
		return nil, false, fmt.Errorf("load training data: %w", err)
	}
	merged, err := core.MergeFeedback(base, BuildVerdictBatch(recs, o.cfg.TargetRepeat))
	if err != nil {
		return nil, false, err
	}
	fitCfg := o.cfg.Fit
	if cur := o.ctrl.CurrentModel(); cur != nil {
		fitCfg.WarmStart = cur.WarmStartState()
	}
	trained := core.New(fitCfg, o.cfg.Seed)
	if err := trained.Fit(o.ctx, merged); err != nil {
		return nil, true, err
	}
	// Serve what the saved bytes load, not the fitted object: its
	// training buffers, candidate-selection state and the warm-start
	// snapshot in its config die with this frame, before releaseMemory.
	var buf bytes.Buffer
	if err := trained.Save(&buf); err != nil {
		return nil, true, fmt.Errorf("encode candidate: %w", err)
	}
	m, err = core.Load(&buf)
	if err != nil {
		return nil, true, fmt.Errorf("load candidate: %w", err)
	}
	return m, true, nil
}

// awaitShadow polls the candidate's shadow stats until it has scored
// enough rows, it is superseded, the orchestrator closes, or the
// timeout expires. An empty outcome means the stats are ready to gate.
func (o *Orchestrator) awaitShadow(id int64) (serve.ShadowReport, string, error) {
	deadline := time.NewTimer(o.cfg.ShadowTimeout)
	defer deadline.Stop()
	tick := time.NewTicker(o.cfg.Poll)
	defer tick.Stop()
	for {
		st, ok := o.ctrl.ShadowStats()
		if !ok || st.ID != id {
			return st, "superseded", fmt.Errorf("retrain: candidate %d no longer under evaluation", id)
		}
		if st.Rows >= o.cfg.MinShadowRows {
			return st, "", nil
		}
		select {
		case <-o.ctx.Done():
			_ = o.ctrl.DiscardShadow(id)
			return st, "canceled", o.ctx.Err()
		case <-deadline.C:
			return st, "shadow-timeout", fmt.Errorf(
				"retrain: candidate %d scored %d/%d shadow rows within %s",
				id, st.Rows, o.cfg.MinShadowRows, o.cfg.ShadowTimeout)
		case <-tick.C:
		}
	}
}
