package monitor

import (
	"math"
	"sync"
	"testing"

	"targad/internal/dataset"
	"targad/internal/mat"
	"targad/internal/rng"
)

// refData builds a deterministic reference pool: rows rows of dim
// features, feature j distributed uniformly over [j, j+1), plus
// matching pseudo-scores in [0, 1) and a fixed decision pattern.
func refData(rows, dim int, seed int64) (*mat.Matrix, []float64, []dataset.Kind) {
	r := rng.New(seed)
	x := mat.New(rows, dim)
	scores := make([]float64, rows)
	kinds := make([]dataset.Kind, rows)
	for i := 0; i < rows; i++ {
		row := x.Row(i)
		for j := range row {
			row[j] = float64(j) + r.Float64()
		}
		scores[i] = r.Float64()
		switch {
		case i%10 == 0:
			kinds[i] = dataset.KindTarget
		case i%10 == 1:
			kinds[i] = dataset.KindNonTarget
		default:
			kinds[i] = dataset.KindNormal
		}
	}
	return x, scores, kinds
}

func captureRef(t testing.TB, rows, dim int) (*Profile, *mat.Matrix, []float64, []dataset.Kind) {
	t.Helper()
	x, scores, kinds := refData(rows, dim, 1)
	p, err := Capture(x, scores, map[int][]dataset.Kind{0: kinds}, 0.5, 0)
	if err != nil {
		t.Fatal(err)
	}
	return p, x, scores, kinds
}

func TestCaptureProfileShape(t *testing.T) {
	p, x, _, _ := captureRef(t, 500, 4)
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	if p.Dim() != 4 || p.Bins != DefaultBins || p.Rows != 500 {
		t.Fatalf("profile shape: dim=%d bins=%d rows=%d", p.Dim(), p.Bins, p.Rows)
	}
	for j := 0; j < p.Dim(); j++ {
		var sum float64
		for _, v := range p.Feature[j] {
			sum += v
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("feature %d histogram mass %v, want 1", j, sum)
		}
		// Feature j is uniform over [j, j+1): mean ≈ j+0.5, var ≈ 1/12.
		if math.Abs(p.Mean[j]-(float64(j)+0.5)) > 0.05 {
			t.Fatalf("feature %d mean %v", j, p.Mean[j])
		}
		if math.Abs(p.Var[j]-1.0/12) > 0.02 {
			t.Fatalf("feature %d var %v", j, p.Var[j])
		}
		_ = x
	}
	var sSum float64
	for _, v := range p.Score {
		sSum += v
	}
	if math.Abs(sSum-1) > 1e-9 {
		t.Fatalf("score histogram mass %v", sSum)
	}
	mix := p.Mix[0]
	if math.Abs(mix[int(dataset.KindTarget)]-0.1) > 1e-9 ||
		math.Abs(mix[int(dataset.KindNonTarget)]-0.1) > 1e-9 ||
		math.Abs(mix[int(dataset.KindNormal)]-0.8) > 1e-9 {
		t.Fatalf("decision mix %v, want [0.8 0.1 0.1]", mix)
	}
	if p.NormalPrior != 0.5 {
		t.Fatalf("normal prior %v", p.NormalPrior)
	}
}

func TestCaptureErrorPaths(t *testing.T) {
	if _, err := Capture(nil, nil, nil, 0.5, 0); err == nil {
		t.Fatal("nil matrix must error")
	}
	x := mat.New(3, 2)
	if _, err := Capture(x, []float64{1}, nil, 0.5, 0); err == nil {
		t.Fatal("score length mismatch must error")
	}
	if _, err := Capture(x, make([]float64, 3), map[int][]dataset.Kind{0: {0}}, 0.5, 0); err == nil {
		t.Fatal("kinds length mismatch must error")
	}
}

func TestProfileValidateRejectsCorrupt(t *testing.T) {
	p, _, _, _ := captureRef(t, 100, 3)
	good := *p
	cases := []func(*Profile){
		func(q *Profile) { q.Mean = nil },
		func(q *Profile) { q.Bins = 1 },
		func(q *Profile) { q.Rows = 0 },
		func(q *Profile) { q.Feature = q.Feature[:1] },
		func(q *Profile) { q.Feature[0] = q.Feature[0][:3] },
		func(q *Profile) { q.Score = q.Score[:2] },
		func(q *Profile) { q.ScoreWidth = 0 },
	}
	for i, mutate := range cases {
		q := good
		q.Feature = append([][]float64(nil), good.Feature...)
		q.Feature[0] = append([]float64(nil), good.Feature[0]...)
		mutate(&q)
		if err := q.Validate(); err == nil {
			t.Fatalf("case %d: corrupt profile must not validate", i)
		}
	}
	var nilP *Profile
	if err := nilP.Validate(); err == nil {
		t.Fatal("nil profile must not validate")
	}
}

// TestInDistributionTrafficStaysOK: replaying the reference pool
// through the window keeps every statistic near zero.
func TestInDistributionTrafficStaysOK(t *testing.T) {
	p, x, scores, kinds := captureRef(t, 2000, 4)
	a, err := NewAccumulator(p, Config{WindowRows: 1000, Buckets: 4, Strategy: 0})
	if err != nil {
		t.Fatal(err)
	}
	if got := a.Snapshot(); got.Status != StatusFilling {
		t.Fatalf("empty window status %v, want filling", got.Status)
	}
	a.Observe(x, scores, kinds)
	s := a.Snapshot()
	if s.Status != StatusOK {
		t.Fatalf("in-distribution window status %v (maxPSI=%v scorePSI=%v mixTV=%v)",
			s.Status, s.MaxPSI, s.ScorePSI, s.MixTV)
	}
	if s.MaxPSI > 0.15 || s.ScorePSI > 0.15 {
		t.Fatalf("in-distribution PSI too large: features %v score %v", s.MaxPSI, s.ScorePSI)
	}
	if !s.HaveMix || s.MixTV > 0.05 {
		t.Fatalf("mix deviation %v (have=%v), want ~0", s.MixTV, s.HaveMix)
	}
	if s.Rows == 0 || !s.Filled {
		t.Fatalf("window rows %d filled=%v", s.Rows, s.Filled)
	}
}

// TestShiftedTrafficAlarms: shifting every feature by several bin
// widths drives feature PSI into alarm, and concentrating the scores
// drives score PSI up too.
func TestShiftedTrafficAlarms(t *testing.T) {
	p, x, scores, kinds := captureRef(t, 2000, 4)
	a, err := NewAccumulator(p, Config{WindowRows: 1000, Buckets: 4, Strategy: 0})
	if err != nil {
		t.Fatal(err)
	}
	shifted := x.Clone()
	for i := range shifted.Data {
		shifted.Data[i] += 0.7 // most of a feature's [j, j+1) support
	}
	hot := make([]float64, len(scores))
	for i := range hot {
		hot[i] = 0.97 // scores collapse into the top bin
	}
	a.Observe(shifted, hot, kinds)
	s := a.Snapshot()
	if s.Status != StatusAlarm {
		t.Fatalf("shifted window status %v (maxPSI=%v)", s.Status, s.MaxPSI)
	}
	if s.ScorePSI < 1 {
		t.Fatalf("collapsed score distribution PSI %v, want large", s.ScorePSI)
	}
	if s.MaxPSIFeature < 0 || s.MaxKS == 0 {
		t.Fatalf("per-feature attribution missing: feature=%d ks=%v", s.MaxPSIFeature, s.MaxKS)
	}
}

// TestMixDeviationAlarms: feature and score distributions unchanged,
// but every decision flips to non-target — the contamination-drift
// failure mode — must alarm via the mix axis alone.
func TestMixDeviationAlarms(t *testing.T) {
	p, x, scores, _ := captureRef(t, 2000, 4)
	a, err := NewAccumulator(p, Config{WindowRows: 1000, Buckets: 4, Strategy: 0})
	if err != nil {
		t.Fatal(err)
	}
	flipped := make([]dataset.Kind, x.Rows)
	for i := range flipped {
		flipped[i] = dataset.KindNonTarget
	}
	a.Observe(x, scores, flipped)
	s := a.Snapshot()
	if !s.HaveMix || s.MixTV < 0.35 {
		t.Fatalf("flipped decisions mixTV %v (have=%v), want >= alarm", s.MixTV, s.HaveMix)
	}
	if s.Status != StatusAlarm {
		t.Fatalf("mix-only drift status %v, want alarm", s.Status)
	}
}

// TestWindowAgesOutOldTraffic: after a full window of drifted rows is
// followed by a full window of clean rows, the drifted traffic must
// have rotated out of the ring entirely.
func TestWindowAgesOutOldTraffic(t *testing.T) {
	p, x, scores, kinds := captureRef(t, 2000, 4)
	a, err := NewAccumulator(p, Config{WindowRows: 800, Buckets: 4, Strategy: 0})
	if err != nil {
		t.Fatal(err)
	}
	shifted := x.Clone()
	for i := range shifted.Data {
		shifted.Data[i] += 0.7
	}
	a.Observe(shifted, scores, kinds)
	if s := a.Snapshot(); s.Status != StatusAlarm {
		t.Fatalf("drifted fill status %v, want alarm", s.Status)
	}
	// Two clean windows displace every drifted bucket (ring + cur).
	a.Observe(x, scores, kinds)
	a.Observe(x, scores, kinds)
	s := a.Snapshot()
	if s.Status != StatusOK {
		t.Fatalf("recovered window status %v (maxPSI=%v), want ok", s.Status, s.MaxPSI)
	}
	if s.TotalRows != 3*2000 {
		t.Fatalf("total rows %d, want 6000", s.TotalRows)
	}
}

func TestAccumulatorRejectsBadInput(t *testing.T) {
	p, x, scores, kinds := captureRef(t, 200, 4)
	if _, err := NewAccumulator(nil, Config{}); err == nil {
		t.Fatal("nil profile must error")
	}
	a, err := NewAccumulator(p, Config{WindowRows: 100, Buckets: 4})
	if err != nil {
		t.Fatal(err)
	}
	// Wrong width, wrong score length, wrong kinds length: ignored, not
	// panicking, not polluting the window.
	a.Observe(mat.New(3, 7), make([]float64, 3), nil)
	a.Observe(x, scores[:10], nil)
	a.Observe(x, scores, kinds[:5])
	if got := a.TotalRows(); got != 200 {
		t.Fatalf("total rows %d after malformed observes, want 200 (kinds-only mismatch ingests)", got)
	}
}

// TestObserveZeroAllocs pins the serve hot path: once constructed, the
// accumulator ingests batches without a single heap allocation.
func TestObserveZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; run without -race")
	}
	p, x, scores, kinds := captureRef(t, 512, 8)
	a, err := NewAccumulator(p, Config{WindowRows: 256, Buckets: 4, Strategy: 0})
	if err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(50, func() {
		a.Observe(x, scores, kinds)
	})
	if allocs != 0 {
		t.Fatalf("Observe allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestObserveConcurrent exercises the mutex under the race detector.
func TestObserveConcurrent(t *testing.T) {
	p, x, scores, kinds := captureRef(t, 400, 4)
	a, err := NewAccumulator(p, Config{WindowRows: 200, Buckets: 4, Strategy: 0})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 5; i++ {
				a.Observe(x, scores, kinds)
				_ = a.Snapshot()
			}
		}()
	}
	wg.Wait()
	if got := a.TotalRows(); got != 4*5*400 {
		t.Fatalf("total rows %d, want %d", got, 4*5*400)
	}
}

func TestStatusString(t *testing.T) {
	for s, want := range map[Status]string{
		StatusFilling: "filling", StatusOK: "ok", StatusWarn: "warn",
		StatusAlarm: "alarm", Status(99): "unknown",
	} {
		if got := s.String(); got != want {
			t.Fatalf("Status(%d).String() = %q, want %q", int(s), got, want)
		}
	}
}

// BenchmarkMonitorObserve measures the per-row ingest cost of the
// monitoring window — the only work monitoring adds to the serve hot
// path. scripts/ci.sh pins its allocs/op at 0.
func BenchmarkMonitorObserve(b *testing.B) {
	p, x, scores, kinds := captureRef(b, 64, 32)
	a, err := NewAccumulator(p, Config{WindowRows: 2048, Buckets: 8, Strategy: 0})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a.Observe(x, scores, kinds)
	}
}
