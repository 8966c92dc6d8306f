package serve

import (
	"net/http"

	"targad/internal/core"
	"targad/internal/monitor"
	"targad/internal/obs"
)

// newAccumulator builds the drift window for a freshly installed
// model, or nil when monitoring cannot arm: monitoring disabled by
// config, or the model carries no reference profile (v1 save files,
// degenerate captures). A nil accumulator costs the hot path one nil
// check per batch.
func (s *Server) newAccumulator(m *core.Model) *monitor.Accumulator {
	if s.cfg.DisableMonitor {
		return nil
	}
	p := m.Profile()
	if p == nil {
		return nil
	}
	mc := s.cfg.Monitor
	mc.Strategy = int(s.cfg.Strategy)
	a, err := monitor.NewAccumulator(p, mc)
	if err != nil {
		s.cfg.Logf("serve: monitoring disabled: %v", err)
		return nil
	}
	return a
}

// driftThresholds echoes the effective warn/alarm configuration in the
// /drift answer so operators can read status and cutoffs together.
type driftThresholds struct {
	WarnPSI  float64 `json:"warn_psi"`
	AlarmPSI float64 `json:"alarm_psi"`
	WarnMix  float64 `json:"warn_mix"`
	AlarmMix float64 `json:"alarm_mix"`
}

// driftFeature is one feature's live-vs-reference drift in the /drift
// answer.
type driftFeature struct {
	Index   int     `json:"index"`
	PSI     float64 `json:"psi"`
	KS      float64 `json:"ks"`
	Mean    float64 `json:"mean"`
	RefMean float64 `json:"ref_mean"`
}

// driftResponse is the GET /drift JSON body.
type driftResponse struct {
	Enabled bool   `json:"enabled"`
	Reason  string `json:"reason,omitempty"`

	ModelVersion int64  `json:"model_version,omitempty"`
	Status       string `json:"status,omitempty"`
	WindowRows   int64  `json:"window_rows,omitempty"`
	TotalRows    int64  `json:"total_rows,omitempty"`
	MinRows      int    `json:"min_rows,omitempty"`

	Thresholds *driftThresholds `json:"thresholds,omitempty"`

	MaxFeaturePSI float64 `json:"max_feature_psi,omitempty"`
	MaxPSIFeature int     `json:"max_psi_feature,omitempty"`
	MaxFeatureKS  float64 `json:"max_feature_ks,omitempty"`
	MaxKSFeature  int     `json:"max_ks_feature,omitempty"`
	ScorePSI      float64 `json:"score_psi,omitempty"`
	ScoreKS       float64 `json:"score_ks,omitempty"`

	HaveMix     bool        `json:"have_mix,omitempty"`
	Mix         *[3]float64 `json:"mix,omitempty"`
	RefMix      *[3]float64 `json:"ref_mix,omitempty"`
	MixTV       float64     `json:"mix_tv,omitempty"`
	NormalPrior float64     `json:"normal_prior,omitempty"`
	DecidedRows int64       `json:"decided_rows,omitempty"`

	Features []driftFeature `json:"features,omitempty"`

	Shadow *ShadowReport `json:"shadow,omitempty"`
}

// handleDrift answers GET /drift with the current window's drift
// report against the served model's reference profile, plus the shadow
// evaluation's running stats when one is active.
func (s *Server) handleDrift(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeJSON(w, http.StatusMethodNotAllowed, errorResponse{Error: "GET required"})
		return
	}
	out := driftResponse{Shadow: s.shadowSnapshot()}
	lm := s.cur.Load()
	switch {
	case lm == nil:
		out.Reason = "no model loaded"
	case lm.mon == nil:
		if s.cfg.DisableMonitor {
			out.Reason = "monitoring disabled by configuration"
		} else {
			out.Reason = "served model carries no reference profile (pre-v2 save file)"
		}
		out.ModelVersion = lm.version
	default:
		snap := lm.mon.Snapshot()
		mc := lm.mon.Config()
		out.Enabled = true
		out.ModelVersion = lm.version
		out.Status = snap.Status.String()
		out.WindowRows = snap.Rows
		out.TotalRows = snap.TotalRows
		out.MinRows = snap.MinRows
		out.Thresholds = &driftThresholds{
			WarnPSI: mc.WarnPSI, AlarmPSI: mc.AlarmPSI,
			WarnMix: mc.WarnMix, AlarmMix: mc.AlarmMix,
		}
		out.MaxFeaturePSI = snap.MaxPSI
		out.MaxPSIFeature = snap.MaxPSIFeature
		out.MaxFeatureKS = snap.MaxKS
		out.MaxKSFeature = snap.MaxKSFeature
		out.ScorePSI = snap.ScorePSI
		out.ScoreKS = snap.ScoreKS
		out.NormalPrior = snap.NormalPrior
		if snap.HaveMix {
			out.HaveMix = true
			mix, ref := snap.Mix, snap.RefMix
			out.Mix, out.RefMix = &mix, &ref
			out.MixTV = snap.MixTV
			out.DecidedRows = snap.DecidedRows
		}
		if len(snap.Features) > 0 {
			out.Features = make([]driftFeature, len(snap.Features))
			for i, f := range snap.Features {
				out.Features[i] = driftFeature{Index: f.Index, PSI: f.PSI, KS: f.KS, Mean: f.Mean, RefMean: f.RefMean}
			}
		}
	}
	writeJSON(w, http.StatusOK, out)
}

// writeMonitorMetrics writes the drift and shadow series. Rendering
// runs one Snapshot per scrape — observation-cadence work, never on the
// scoring path.
func (s *Server) writeMonitorMetrics(w *obs.Writer) {
	lm := s.cur.Load()
	enabled := lm != nil && lm.mon != nil
	w.Gauge("targad_monitor_enabled", "1 when drift monitoring is armed for the served model.", obs.Bool(enabled))
	if enabled {
		snap := lm.mon.Snapshot()
		w.Gauge("targad_monitor_status", "Drift status: 0 filling, 1 ok, 2 warn, 3 alarm.", float64(snap.Status))
		w.Gauge("targad_monitor_window_rows", "Rows in the sliding drift window.", float64(snap.Rows))
		w.Gauge("targad_monitor_max_feature_psi", "Worst per-feature PSI of the window vs the reference profile.", snap.MaxPSI)
		w.Gauge("targad_monitor_max_feature_ks", "Worst per-feature binned KS statistic vs the reference profile.", snap.MaxKS)
		w.Gauge("targad_monitor_score_psi", "PSI of the live S^tar score distribution vs the reference.", snap.ScorePSI)
		w.Gauge("targad_monitor_score_ks", "Binned KS of the live S^tar score distribution vs the reference.", snap.ScoreKS)
		if snap.HaveMix {
			w.Gauge("targad_monitor_mix_tv", "Total-variation distance of the live decision mix from the reference.", snap.MixTV)
		}
	}

	sh := s.shadowSnapshot()
	w.Gauge("targad_shadow_active", "1 while a shadow model is under evaluation.", obs.Bool(sh != nil))
	if sh != nil {
		// The _total series restart with each shadow session, which
		// Prometheus reads as a counter reset.
		w.Counter("targad_shadow_batches_total", "Live batches the shadow model re-scored.", sh.Batches)
		w.Counter("targad_shadow_rows_total", "Rows the shadow model re-scored.", sh.Rows)
		w.Gauge("targad_shadow_score_mean_abs_delta", "Mean |shadow score - serving score| over sampled rows.", sh.MeanAbsDelta)
		w.Gauge("targad_shadow_score_max_abs_delta", "Largest |shadow score - serving score| seen.", sh.MaxAbsDelta)
		w.Gauge("targad_shadow_decision_flip_rate", "Fraction of sampled decisions the shadow model flips.", sh.FlipRate)
		w.Counter("targad_shadow_errors_total", "Shadow inference passes that failed.", sh.Errors)
	}
}
