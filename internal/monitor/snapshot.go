package monitor

import (
	"targad/internal/metrics"
)

// Status classifies one drift snapshot.
type Status int

const (
	// StatusFilling: the window holds fewer than MinRows rows; drift
	// is not judged yet.
	StatusFilling Status = iota
	// StatusOK: every tracked statistic sits below its warn threshold.
	StatusOK
	// StatusWarn: at least one statistic crossed warn but none crossed
	// alarm.
	StatusWarn
	// StatusAlarm: at least one statistic crossed its alarm threshold.
	StatusAlarm
)

// String renders the status as its API spelling.
func (s Status) String() string {
	switch s {
	case StatusFilling:
		return "filling"
	case StatusOK:
		return "ok"
	case StatusWarn:
		return "warn"
	case StatusAlarm:
		return "alarm"
	default:
		return "unknown"
	}
}

// FeatureDrift is one feature's window-vs-reference comparison.
type FeatureDrift struct {
	Index   int
	PSI     float64
	KS      float64
	Mean    float64 // live window mean
	RefMean float64 // profile mean
}

// Snapshot is one point-in-time drift report: the sliding window
// compared against the Fit-time profile.
type Snapshot struct {
	// Rows is the window's current size; TotalRows counts everything
	// ever observed; MinRows is the judging threshold.
	Rows      int64
	TotalRows int64
	MinRows   int
	Filled    bool
	Status    Status

	// Per-feature drift, index-aligned with the model's features, and
	// the worst offenders.
	Features      []FeatureDrift
	MaxPSI        float64
	MaxPSIFeature int
	MaxKS         float64
	MaxKSFeature  int

	// Score-distribution drift (S^tar vs the profile's histogram).
	ScorePSI float64
	ScoreKS  float64

	// Decision-mix deviation: live [normal, target, non-target]
	// proportions vs the reference mix, their total-variation
	// distance, and the k/(m+k) prior for context. HaveMix is false
	// when the tracked strategy has no reference mix or the window has
	// no decided rows yet.
	HaveMix     bool
	Mix         [3]float64
	RefMix      [3]float64
	MixTV       float64
	NormalPrior float64
	DecidedRows int64
}

// Snapshot aggregates the ring and compares it with the profile. It
// allocates its report and the aggregation scratch; intended for
// observation endpoints, not the per-request path.
func (a *Accumulator) Snapshot() Snapshot {
	dim := a.p.Dim()
	agg := newBucket(dim, a.p.Bins)

	a.mu.Lock()
	for _, b := range a.ring {
		if b.rows > 0 {
			b.addInto(agg)
		}
	}
	if a.cur.rows > 0 {
		a.cur.addInto(agg)
	}
	total := a.total
	a.mu.Unlock()

	s := Snapshot{
		Rows:          agg.rows,
		TotalRows:     total,
		MinRows:       a.cfg.MinRows,
		MaxPSIFeature: -1,
		MaxKSFeature:  -1,
		NormalPrior:   a.p.NormalPrior,
		RefMix:        a.refMix,
		DecidedRows:   agg.decided,
	}
	s.Filled = s.Rows >= int64(s.MinRows)
	if !s.Filled {
		s.Status = StatusFilling
		return s
	}

	cur := make([]float64, a.p.Bins)
	toF64 := func(counts []int64) []float64 {
		for i, c := range counts {
			cur[i] = float64(c)
		}
		return cur
	}

	s.Features = make([]FeatureDrift, dim)
	rows := float64(agg.rows)
	for j := 0; j < dim; j++ {
		fd := FeatureDrift{Index: j, RefMean: a.p.Mean[j], Mean: agg.featSum[j] / rows}
		h := toF64(agg.feat[j])
		if psi, err := metrics.PSI(a.p.Feature[j], h); err == nil {
			fd.PSI = psi
		}
		if ks, err := metrics.KSFromHistograms(a.p.Feature[j], h); err == nil {
			fd.KS = ks
		}
		s.Features[j] = fd
		if fd.PSI > s.MaxPSI || s.MaxPSIFeature < 0 {
			s.MaxPSI, s.MaxPSIFeature = fd.PSI, j
		}
		if fd.KS > s.MaxKS || s.MaxKSFeature < 0 {
			s.MaxKS, s.MaxKSFeature = fd.KS, j
		}
	}

	sh := toF64(agg.score)
	if psi, err := metrics.PSI(a.p.Score, sh); err == nil {
		s.ScorePSI = psi
	}
	if ks, err := metrics.KSFromHistograms(a.p.Score, sh); err == nil {
		s.ScoreKS = ks
	}

	if a.haveMix && agg.decided > 0 {
		s.HaveMix = true
		for i := range s.Mix {
			s.Mix[i] = float64(agg.mix[i]) / float64(agg.decided)
		}
		if tv, err := metrics.TotalVariation(a.refMix[:], s.Mix[:]); err == nil {
			s.MixTV = tv
		}
	}

	level := s.MaxPSI
	if s.ScorePSI > level {
		level = s.ScorePSI
	}
	switch {
	case level >= a.cfg.AlarmPSI || (s.HaveMix && s.MixTV >= a.cfg.AlarmMix):
		s.Status = StatusAlarm
	case level >= a.cfg.WarnPSI || (s.HaveMix && s.MixTV >= a.cfg.WarnMix):
		s.Status = StatusWarn
	default:
		s.Status = StatusOK
	}
	return s
}
