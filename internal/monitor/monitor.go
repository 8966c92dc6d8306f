// Package monitor is the live model-monitoring subsystem: it watches
// whether the traffic a served TargAD model scores still looks like
// the data the model was trained on.
//
// TargAD's guarantees hinge on the training-time contamination mix —
// the candidate ratio α, the k/(m+k) identification prior, the
// calibrated ES/ED thresholds — still describing live traffic.
// Non-target anomalies shift the score distribution in ways that
// silently degrade target detection (the paper's whole premise), so
// the score distribution itself is the monitoring object:
//
//   - At Fit time, core captures a Profile — per-feature mean/variance
//     and equi-width histograms, the S^tar score histogram, and the
//     three-way decision mix — over the unlabeled training pool, and
//     persists it inside the saved model (format v2).
//   - At serve time, an Accumulator ingests every scored batch into a
//     sliding window of ring-buffered buckets. The hot path (Observe)
//     only bins values into pre-allocated counters: zero allocations
//     per request, one short mutex hold per batch.
//   - On demand (GET /drift, /metrics), Snapshot compares the window
//     against the Profile: PSI and binned KS per feature and for the
//     score distribution, and total-variation deviation of the
//     decision mix from the training reference — classified into
//     ok / warn / alarm by configurable thresholds.
//
// The status is a report: nothing in the process acts on it. Readiness
// does not depend on it, and a retrain cycle starts only on request
// (POST /retrain), which an alert on targad_monitor_status can call.
//
// The package depends only on mat, dataset, and metrics; core imports
// it for capture and persistence, serve for the runtime window.
package monitor

import (
	"errors"
	"fmt"
	"math"
	"sync"

	"targad/internal/dataset"
	"targad/internal/mat"
)

// DefaultBins is the histogram resolution profiles are captured at.
// 16 equi-width bins keep the profile small (dim×16 float64s), give
// PSI enough resolution to see a shifted mode, and keep the sampling
// noise of a ~2k-row serving window well under the warn threshold.
const DefaultBins = 16

// Profile is the reference distribution captured at Fit time and
// persisted inside the saved model. All fields are exported for gob.
type Profile struct {
	// Rows is how many reference rows the profile summarizes.
	Rows int
	// Bins is the per-histogram bin count.
	Bins int

	// Mean and Var are per-feature moments of the reference pool.
	Mean, Var []float64
	// Lo and Width define each feature's equi-width bin geometry:
	// bin(v) = clamp(int((v−Lo)/Width), 0, Bins−1). Width 0 (constant
	// feature) maps everything to bin 0.
	Lo, Width []float64
	// Feature holds one reference histogram per feature, as
	// proportions.
	Feature [][]float64

	// ScoreLo/ScoreWidth give the S^tar histogram's geometry (scores
	// are probabilities, so [0,1] split into Bins), and Score its
	// reference proportions.
	ScoreLo, ScoreWidth float64
	Score               []float64

	// Mix maps an identification strategy (core.OODStrategy as int) to
	// the reference three-way decision mix [normal, target, non-target]
	// over the reference pool.
	Mix map[int][3]float64
	// NormalPrior is k/(m+k), the normal-decision prior the three-way
	// rule thresholds against.
	NormalPrior float64
}

// Dim returns the feature dimensionality the profile was captured at.
func (p *Profile) Dim() int { return len(p.Mean) }

// Validate reports whether the profile is internally consistent —
// a defense against hand-built or corrupted persisted profiles.
func (p *Profile) Validate() error {
	if p == nil {
		return errors.New("monitor: nil profile")
	}
	d := p.Dim()
	if d == 0 || p.Bins < 2 || p.Rows < 1 {
		return fmt.Errorf("monitor: degenerate profile (dim=%d bins=%d rows=%d)", d, p.Bins, p.Rows)
	}
	if len(p.Var) != d || len(p.Lo) != d || len(p.Width) != d || len(p.Feature) != d {
		return fmt.Errorf("monitor: profile field lengths disagree with dim %d", d)
	}
	for j, h := range p.Feature {
		if len(h) != p.Bins {
			return fmt.Errorf("monitor: feature %d histogram has %d bins, want %d", j, len(h), p.Bins)
		}
	}
	if len(p.Score) != p.Bins {
		return fmt.Errorf("monitor: score histogram has %d bins, want %d", len(p.Score), p.Bins)
	}
	if p.ScoreWidth <= 0 {
		return fmt.Errorf("monitor: score bin width %v", p.ScoreWidth)
	}
	return nil
}

// binIndex maps a value onto an equi-width histogram, clamping
// underflow, overflow, and NaN (NaN fails every comparison and lands
// in bin 0).
func binIndex(v, lo, width float64, bins int) int {
	if width <= 0 {
		return 0
	}
	d := v - lo
	if !(d > 0) {
		return 0
	}
	i := int(d / width)
	if i >= bins {
		return bins - 1
	}
	return i
}

// Capture builds the reference profile from the training pool: the
// feature matrix, the model's S^tar scores over it, and (optionally)
// the three-way decisions per calibrated strategy. normalPrior is
// k/(m+k). bins <= 0 selects DefaultBins.
func Capture(x *mat.Matrix, scores []float64, kinds map[int][]dataset.Kind, normalPrior float64, bins int) (*Profile, error) {
	if x == nil || x.Rows == 0 || x.Cols == 0 {
		return nil, errors.New("monitor: capture needs a non-empty reference matrix")
	}
	if len(scores) != x.Rows {
		return nil, fmt.Errorf("monitor: %d scores vs %d reference rows", len(scores), x.Rows)
	}
	if bins <= 0 {
		bins = DefaultBins
	}
	d := x.Cols
	p := &Profile{
		Rows:        x.Rows,
		Bins:        bins,
		Mean:        make([]float64, d),
		Var:         make([]float64, d),
		Lo:          make([]float64, d),
		Width:       make([]float64, d),
		Feature:     make([][]float64, d),
		ScoreLo:     0,
		ScoreWidth:  1 / float64(bins),
		Score:       make([]float64, bins),
		NormalPrior: normalPrior,
	}

	// Per-feature geometry and moments in one pass over columns.
	n := float64(x.Rows)
	for j := 0; j < d; j++ {
		lo, hi := math.Inf(1), math.Inf(-1)
		var sum, sumSq float64
		for i := 0; i < x.Rows; i++ {
			v := x.At(i, j)
			if v < lo {
				lo = v
			}
			if v > hi {
				hi = v
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / n
		p.Mean[j] = mean
		if v := sumSq/n - mean*mean; v > 0 {
			p.Var[j] = v
		}
		p.Lo[j] = lo
		if hi > lo {
			p.Width[j] = (hi - lo) / float64(bins)
		}
		p.Feature[j] = make([]float64, bins)
	}

	inv := 1 / n
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			p.Feature[j][binIndex(v, p.Lo[j], p.Width[j], bins)] += inv
		}
		p.Score[binIndex(scores[i], p.ScoreLo, p.ScoreWidth, bins)] += inv
	}

	if len(kinds) > 0 {
		p.Mix = make(map[int][3]float64, len(kinds))
		for strat, ks := range kinds {
			if len(ks) != x.Rows {
				return nil, fmt.Errorf("monitor: strategy %d has %d decisions vs %d rows", strat, len(ks), x.Rows)
			}
			var mix [3]float64
			for _, k := range ks {
				if k >= 0 && int(k) < 3 {
					mix[k] += inv
				}
			}
			p.Mix[strat] = mix
		}
	}
	return p, nil
}

// Config tunes the serving-time window and its thresholds. The zero
// value of every field selects a usable default.
type Config struct {
	// WindowRows is the sliding window's size in scored rows
	// (default 2048).
	WindowRows int
	// Buckets is the ring granularity: the window is Buckets
	// sub-histograms rotated as rows arrive, so stale traffic ages out
	// in WindowRows/Buckets-row steps (default 8).
	Buckets int
	// MinRows is the fill threshold below which Snapshot reports
	// StatusFilling instead of judging drift (default WindowRows/2).
	MinRows int

	// WarnPSI/AlarmPSI threshold the worst PSI over all features and
	// the score distribution (defaults 0.25 / 0.8; the classic PSI
	// reading is <0.1 stable, >0.25 major shift — the defaults sit
	// above small-window sampling noise).
	WarnPSI, AlarmPSI float64
	// WarnMix/AlarmMix threshold the total-variation distance between
	// the live decision mix and the profile's reference mix
	// (defaults 0.15 / 0.35).
	WarnMix, AlarmMix float64

	// Strategy is the identification strategy (core.OODStrategy as
	// int) whose decision mix the window tracks; it must be a key of
	// the profile's Mix for mix tracking to arm.
	Strategy int
}

func (c Config) withDefaults() Config {
	if c.WindowRows <= 0 {
		c.WindowRows = 2048
	}
	if c.Buckets <= 0 {
		c.Buckets = 8
	}
	if c.Buckets > c.WindowRows {
		c.Buckets = c.WindowRows
	}
	if c.MinRows <= 0 {
		c.MinRows = c.WindowRows / 2
	}
	if c.WarnPSI <= 0 {
		c.WarnPSI = 0.25
	}
	if c.AlarmPSI <= 0 {
		c.AlarmPSI = 0.8
	}
	if c.AlarmPSI < c.WarnPSI {
		c.AlarmPSI = c.WarnPSI
	}
	if c.WarnMix <= 0 {
		c.WarnMix = 0.15
	}
	if c.AlarmMix <= 0 {
		c.AlarmMix = 0.35
	}
	if c.AlarmMix < c.WarnMix {
		c.AlarmMix = c.WarnMix
	}
	return c
}

// bucket is one ring slot: raw counts for a contiguous run of scored
// rows. All slices are pre-allocated by NewAccumulator and reused.
type bucket struct {
	rows    int64
	feat    [][]int64 // [dim][bins]
	featSum []float64 // per-feature value sum (live mean reporting)
	score   []int64   // [bins]
	mix     [3]int64
	decided int64
}

func newBucket(dim, bins int) *bucket {
	b := &bucket{
		feat:    make([][]int64, dim),
		featSum: make([]float64, dim),
		score:   make([]int64, bins),
	}
	for j := range b.feat {
		b.feat[j] = make([]int64, bins)
	}
	return b
}

func (b *bucket) reset() {
	b.rows = 0
	for j := range b.feat {
		clear(b.feat[j])
	}
	clear(b.featSum)
	clear(b.score)
	b.mix = [3]int64{}
	b.decided = 0
}

// copyFrom overwrites b with src without allocating.
func (b *bucket) copyFrom(src *bucket) {
	b.rows = src.rows
	for j := range b.feat {
		copy(b.feat[j], src.feat[j])
	}
	copy(b.featSum, src.featSum)
	copy(b.score, src.score)
	b.mix = src.mix
	b.decided = src.decided
}

// addInto accumulates b into the aggregation target.
func (b *bucket) addInto(dst *bucket) {
	dst.rows += b.rows
	for j := range b.feat {
		row := b.feat[j]
		out := dst.feat[j]
		for i := range row {
			out[i] += row[i]
		}
		dst.featSum[j] += b.featSum[j]
	}
	for i := range b.score {
		dst.score[i] += b.score[i]
	}
	for i := range b.mix {
		dst.mix[i] += b.mix[i]
	}
	dst.decided += b.decided
}

// Accumulator is the serving-time drift window over one profile. One
// accumulator guards one served model generation; a reload builds a
// fresh one, so the window never mixes traffic scored by different
// models.
//
// Observe is the hot path: it allocates nothing and holds the mutex
// only for the row loop. Snapshot allocates its report; it is meant
// for /drift and /metrics cadences, not per request.
type Accumulator struct {
	p       *Profile
	cfg     Config
	refMix  [3]float64
	haveMix bool

	mu        sync.Mutex
	cur       *bucket
	ring      []*bucket
	next      int
	perBucket int64
	total     int64 // rows ever observed
}

// NewAccumulator builds the window for one profile. The profile must
// validate; cfg zero-values take defaults.
func NewAccumulator(p *Profile, cfg Config) (*Accumulator, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	cfg = cfg.withDefaults()
	a := &Accumulator{p: p, cfg: cfg}
	if mix, ok := p.Mix[cfg.Strategy]; ok {
		a.refMix = mix
		a.haveMix = true
	}
	dim := p.Dim()
	a.cur = newBucket(dim, p.Bins)
	a.ring = make([]*bucket, cfg.Buckets)
	for i := range a.ring {
		a.ring[i] = newBucket(dim, p.Bins)
	}
	a.perBucket = int64(cfg.WindowRows / cfg.Buckets)
	if a.perBucket < 1 {
		a.perBucket = 1
	}
	return a, nil
}

// Config returns the accumulator's effective (defaulted) settings.
func (a *Accumulator) Config() Config { return a.cfg }

// Profile returns the reference profile the window compares against.
func (a *Accumulator) Profile() *Profile { return a.p }

// Observe ingests one scored batch: x's rows, their S^tar scores, and
// optionally the three-way decisions (nil when the batch was scored
// without the tracked strategy). Rows beyond the window's bucket size
// rotate the ring in place. Zero allocations per call.
func (a *Accumulator) Observe(x *mat.Matrix, scores []float64, kinds []dataset.Kind) {
	if x == nil || x.Rows == 0 || x.Cols != a.p.Dim() || len(scores) != x.Rows {
		return
	}
	if kinds != nil && len(kinds) != x.Rows {
		kinds = nil
	}
	bins := a.p.Bins
	a.mu.Lock()
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		cur := a.cur
		for j, v := range row {
			cur.feat[j][binIndex(v, a.p.Lo[j], a.p.Width[j], bins)]++
			cur.featSum[j] += v
		}
		cur.score[binIndex(scores[i], a.p.ScoreLo, a.p.ScoreWidth, bins)]++
		if kinds != nil {
			if k := kinds[i]; k >= 0 && int(k) < 3 {
				cur.mix[k]++
				cur.decided++
			}
		}
		cur.rows++
		a.total++
		if cur.rows >= a.perBucket {
			a.ring[a.next].copyFrom(cur)
			a.next = (a.next + 1) % len(a.ring)
			cur.reset()
		}
	}
	a.mu.Unlock()
}

// TotalRows returns how many rows the accumulator has ever observed.
func (a *Accumulator) TotalRows() int64 {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}
