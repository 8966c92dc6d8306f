package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"targad/internal/core"
	"targad/internal/dataset/synth"
	"targad/internal/faultinject"
	"targad/internal/monitor"
	"targad/internal/rng"
)

// fixtureV2Path is the format-v2 model fixture: same training run as
// the v1 fixture, plus the persisted monitoring reference profile.
const fixtureV2Path = "../core/testdata/model_v2.gob"

func loadModelFile(t testing.TB, path string) *core.Model {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing model fixture: %v", err)
	}
	defer f.Close()
	m, err := core.Load(f)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// shadowServedFile installs a fresh load of the served model file as
// the shadow candidate, the way a retrain cycle installs its candidate,
// and returns the candidate's id.
func shadowServedFile(t testing.TB, s *Server) int64 {
	t.Helper()
	id, err := s.ShadowModel(loadModelFile(t, s.cfg.ModelPath), s.cfg.ModelPath)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// newV2TestServer serves a temp copy of the v2 fixture so monitoring
// arms.
func newV2TestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	dir := t.TempDir()
	raw, err := os.ReadFile(fixtureV2Path)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ModelPath = filepath.Join(dir, "model.gob")
	if err := os.WriteFile(cfg.ModelPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	return newTestServer(t, cfg)
}

// trainingRows replays the distribution the fixture model was trained
// on: the same synthetic bundle the fixture writer used (seed 7), its
// unlabeled pool shuffled deterministically so any contiguous slice is
// representative.
func trainingRows(t testing.TB) [][]float64 {
	t.Helper()
	b, err := synth.Generate(synth.KDDCUP99(), synth.Options{
		Scale:          0.03,
		Seed:           7,
		LabeledPerType: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	x := b.Train.Unlabeled
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), x.Row(i)...)
	}
	rng.New(1).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

// fitCandidate trains a small model in the fixture's feature space on
// a different seed, so its weights and scores genuinely differ from
// the fixture's.
func fitCandidate(t testing.TB) *core.Model {
	t.Helper()
	cfg := core.DefaultConfig()
	cfg.K = 2
	cfg.AEEpochs = 2
	cfg.ClfEpochs = 10
	cfg.ClfHidden = []int{16}
	cfg.AEHidden = []int{12, 6}
	bundle, err := synth.Generate(synth.KDDCUP99(), synth.Options{Scale: 0.03, Seed: 13, LabeledPerType: 20})
	if err != nil {
		t.Fatal(err)
	}
	cand := core.New(cfg, 13)
	if err := cand.Fit(context.Background(), bundle.Train); err != nil {
		t.Fatal(err)
	}
	return cand
}

// postBatch posts rows[lo:hi] (cycling past the end) and requires 200.
func postBatch(t testing.TB, ts *httptest.Server, rows [][]float64, lo, n int) {
	t.Helper()
	batch := make([][]float64, n)
	for i := range batch {
		batch[i] = rows[(lo+i)%len(rows)]
	}
	status, _, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: batch})
	if status != http.StatusOK {
		t.Fatalf("score batch: status %d: %s", status, bad.Error)
	}
}

func getDrift(t testing.TB, ts *httptest.Server) driftResponse {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/drift")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/drift: status %d", resp.StatusCode)
	}
	var out driftResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getStatus(t testing.TB, ts *httptest.Server, path string) int {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	return resp.StatusCode
}

// TestDriftDisabledForV1Model: a pre-v2 save file has no profile, so
// /drift reports monitoring off (and says why) while scoring works.
func TestDriftDisabledForV1Model(t *testing.T) {
	_, ts := newTestServer(t, Config{Strategy: core.ED})
	postBatch(t, ts, testRows(4, 11), 0, 4)
	d := getDrift(t, ts)
	if d.Enabled {
		t.Fatal("v1 model must serve unmonitored")
	}
	if !strings.Contains(d.Reason, "profile") {
		t.Fatalf("reason %q does not explain the missing profile", d.Reason)
	}
}

// TestDriftLifecycle is the end-to-end monitoring acceptance: serve
// the v2 fixture, fill the window with traffic from the training
// distribution (status ok, /readyz 200), then shift the synthetic
// request stream through the serve/drift-traffic probe and watch the
// window degrade — warn at partial displacement, alarm when the shift
// dominates. The status is a report only: /readyz answers 200 all
// along, alarm included. Disarming the probe and replaying clean
// traffic ages the shift out of the ring.
func TestDriftLifecycle(t *testing.T) {
	defer faultinject.Reset()
	const batch = 64
	s, ts := newV2TestServer(t, Config{
		Strategy: core.ED,
		Monitor: monitor.Config{
			WindowRows: 4 * batch,
			Buckets:    4,
			MinRows:    2 * batch,
			WarnPSI:    0.2,
			AlarmPSI:   2.0,
			WarnMix:    0.3,
			AlarmMix:   0.95,
		},
	})
	rows := trainingRows(t)

	// Before the window fills, drift is not judged.
	postBatch(t, ts, rows, 0, batch)
	if d := getDrift(t, ts); !d.Enabled || d.Status != "filling" {
		t.Fatalf("after %d rows: enabled=%v status=%q, want filling", batch, d.Enabled, d.Status)
	}

	// Fill the window with in-distribution traffic: ok, and ready.
	for i := 1; i < 4; i++ {
		postBatch(t, ts, rows, i*batch, batch)
	}
	d := getDrift(t, ts)
	if d.Status != "ok" {
		t.Fatalf("in-distribution window: status %q (max PSI %.3f feature %d, score PSI %.3f, mix TV %.3f), want ok",
			d.Status, d.MaxFeaturePSI, d.MaxPSIFeature, d.ScorePSI, d.MixTV)
	}
	if d.WindowRows < int64(2*batch) {
		t.Fatalf("window holds %d rows after %d scored", d.WindowRows, 4*batch)
	}
	if len(d.Features) == 0 || d.Thresholds == nil {
		t.Fatal("/drift must report per-feature drift and thresholds")
	}
	if got := getStatus(t, ts, "/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz with ok drift: %d", got)
	}

	// Shift every request feature: one drifted bucket (1/4 of the
	// window) must cross warn without reaching alarm.
	faultinject.ArmValue(faultinject.ServeDriftTraffic, 6.0, -1)
	postBatch(t, ts, rows, 4*batch, batch)
	d = getDrift(t, ts)
	if d.Status != "warn" {
		t.Fatalf("25%% drifted window: status %q (max PSI %.3f, score PSI %.3f, mix TV %.3f), want warn",
			d.Status, d.MaxFeaturePSI, d.ScorePSI, d.MixTV)
	}
	if got := getStatus(t, ts, "/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz must stay 200 on warn, got %d", got)
	}

	// Let the shift take over the whole window: alarm, still ready.
	for i := 5; i < 8; i++ {
		postBatch(t, ts, rows, i*batch, batch)
	}
	d = getDrift(t, ts)
	if d.Status != "alarm" {
		t.Fatalf("fully drifted window: status %q (max PSI %.3f, score PSI %.3f), want alarm",
			d.Status, d.MaxFeaturePSI, d.ScorePSI)
	}
	if d.MaxFeaturePSI < 2.0 && d.ScorePSI < 2.0 {
		t.Fatalf("alarm without a PSI above threshold: feature %.3f score %.3f", d.MaxFeaturePSI, d.ScorePSI)
	}
	if got := getStatus(t, ts, "/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz under drift alarm: %d, want 200 (readiness ignores drift)", got)
	}

	// The alarmed replica still answers scoring traffic.
	postBatch(t, ts, rows, 0, 4)

	// Clean traffic rotates the shift out of the ring without a restart
	// or reload.
	faultinject.Reset()
	for i := 0; i < 5; i++ {
		postBatch(t, ts, rows, i*batch, batch)
	}
	d = getDrift(t, ts)
	if d.Status != "ok" {
		t.Fatalf("after aging out the shift: status %q (max PSI %.3f, score PSI %.3f), want ok",
			d.Status, d.MaxFeaturePSI, d.ScorePSI)
	}
	if got := getStatus(t, ts, "/readyz"); got != http.StatusOK {
		t.Fatalf("/readyz after recovery: %d, want 200", got)
	}
	_ = s
}

// TestReloadResetsDriftWindow: a reload is a new model generation, so
// the drift window must restart from zero instead of mixing traffic
// scored by different models.
func TestReloadResetsDriftWindow(t *testing.T) {
	_, ts := newV2TestServer(t, Config{
		Strategy: core.ED,
		Monitor:  monitor.Config{WindowRows: 128, Buckets: 4, MinRows: 64},
	})
	rows := trainingRows(t)
	postBatch(t, ts, rows, 0, 96)
	if d := getDrift(t, ts); d.TotalRows != 96 {
		t.Fatalf("window saw %d rows, want 96", d.TotalRows)
	}
	resp, err := ts.Client().Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	d := getDrift(t, ts)
	if d.TotalRows != 0 || d.Status != "filling" {
		t.Fatalf("post-reload window: %d rows, status %q; want a fresh filling window", d.TotalRows, d.Status)
	}
}

// TestShadowEvaluationAndPromote is the shadow-evaluation acceptance:
// load a differently-trained candidate as a shadow, verify it scores
// sampled live traffic in the background and accumulates real deltas,
// then promote it and require served scores bitwise-identical to
// loading the candidate file directly.
func TestShadowEvaluationAndPromote(t *testing.T) {
	s, ts := newV2TestServer(t, Config{
		Strategy:     core.ED,
		ShadowSample: 1, // sample every batch: deterministic counts
	})
	servingVersion := s.ModelVersion()

	cand := fitCandidate(t)
	f, err := os.Create(s.cfg.ModelPath) // overwrite the served file
	if err != nil {
		t.Fatal(err)
	}
	if err := cand.Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Promote/discard without a shadow fails.
	if _, err := s.PromoteShadow(1); err == nil {
		t.Fatal("promote without a shadow must fail")
	}

	// Load the candidate as a shadow; the serving model must not move.
	id := shadowServedFile(t, s)
	if got := s.ModelVersion(); got != servingVersion {
		t.Fatalf("shadow load moved the serving model: v%d -> v%d", servingVersion, got)
	}

	// Live traffic keeps being answered by the OLD model while the
	// shadow re-scores it in the background.
	ref := loadModelFile(t, fixtureV2Path)
	rows := testRows(8, 77)
	want := offlineExpect(t, ref, rows, core.ED)
	const batches = 5
	for i := 0; i < batches; i++ {
		status, got, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: rows, Strategy: "ED"})
		if status != http.StatusOK {
			t.Fatalf("score under shadow: %d: %s", status, bad.Error)
		}
		for j := range want.scores {
			if got.Scores[j] != want.scores[j] {
				t.Fatal("shadow evaluation changed live answers")
			}
		}
	}
	waitShadow(t, s, batches)
	d := getDrift(t, ts)
	if d.Shadow == nil {
		t.Fatal("/drift must carry shadow stats while one is active")
	}
	if d.Shadow.Rows != int64(batches*len(rows)) {
		t.Fatalf("shadow rows %d, want %d", d.Shadow.Rows, batches*len(rows))
	}
	if d.Shadow.MeanAbsDelta <= 0 {
		t.Fatal("differently-trained candidate must show a score delta")
	}
	if d.Shadow.DecidedRows == 0 {
		t.Fatal("shadow must compare decisions when both models are calibrated")
	}

	// Promote: the same model object the shadow scored with starts
	// serving, so answers match loading the candidate file directly —
	// bitwise.
	v, err := s.PromoteShadow(id)
	if err != nil {
		t.Fatalf("promote: %v", err)
	}
	if got := s.ModelVersion(); got != servingVersion+1 || v != got {
		t.Fatalf("promotion version %d (returned v%d), want %d", got, v, servingVersion+1)
	}
	direct := loadModelFile(t, s.cfg.ModelPath)
	wantCand := offlineExpect(t, direct, rows, core.ED)
	status, got, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: rows, Strategy: "ED"})
	if status != http.StatusOK {
		t.Fatalf("score after promote: %d: %s", status, bad.Error)
	}
	for j := range wantCand.scores {
		if got.Scores[j] != wantCand.scores[j] {
			t.Fatalf("row %d: promoted score %v != direct-load %v", j, got.Scores[j], wantCand.scores[j])
		}
		if got.Decisions[j] != wantCand.decisions[j] {
			t.Fatalf("row %d: promoted decision %q != direct-load %q", j, got.Decisions[j], wantCand.decisions[j])
		}
	}
	if d := getDrift(t, ts); d.Shadow != nil {
		t.Fatal("promotion must end the shadow evaluation")
	}
}

// TestShadowDiscard drops the candidate and its stats; while the shadow
// is active, /metrics types its _total series as counters.
func TestShadowDiscard(t *testing.T) {
	s, ts := newV2TestServer(t, Config{Strategy: core.ED, ShadowSample: 1})
	before := s.ModelVersion()
	id := shadowServedFile(t, s)
	// The shadow's _total series only grow within a session: counters.
	m := scrapeMetrics(t, ts)
	for _, want := range []string{
		"targad_shadow_active 1",
		"# TYPE targad_shadow_batches_total counter\n",
		"# TYPE targad_shadow_rows_total counter\n",
		"# TYPE targad_shadow_errors_total counter\n",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics with an active shadow missing %q in:\n%s", want, m)
		}
	}
	if err := s.DiscardShadow(id); err != nil {
		t.Fatalf("discard: %v", err)
	}
	if got := s.ModelVersion(); got != before {
		t.Fatal("discard must not touch the serving model")
	}
	if _, ok := s.ShadowStats(); ok {
		t.Fatal("discard must drop the shadow stats")
	}
	if err := s.DiscardShadow(id); err == nil {
		t.Fatal("second discard must fail")
	}
}

// TestReloadRefusesShadowQuery: only a retrain cycle installs a shadow
// candidate, so POST /reload with a shadow query is a 400 that names
// the removal. A script that copied a candidate over the served file
// and asked for a shadow load must not get it served instead: the
// version, the answers and the (absent) shadow stay as they were.
func TestReloadRefusesShadowQuery(t *testing.T) {
	s, ts := newV2TestServer(t, Config{Strategy: core.ED, ShadowSample: 1})
	before := s.ModelVersion()
	rows := testRows(8, 77)
	want := offlineExpect(t, loadModelFile(t, s.cfg.ModelPath), rows, core.ED)

	f, err := os.Create(s.cfg.ModelPath) // a different model on the served path
	if err != nil {
		t.Fatal(err)
	}
	if err := fitCandidate(t).Save(f); err != nil {
		t.Fatal(err)
	}
	f.Close()

	for _, query := range []string{"shadow=1", "shadow=true"} {
		resp, err := ts.Client().Post(ts.URL+"/reload?"+query, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "removed") {
			t.Fatalf("POST /reload?%s: %d %s, want 400 naming the removal", query, resp.StatusCode, body)
		}
	}
	if got := s.ModelVersion(); got != before {
		t.Fatalf("refused reload moved the model: v%d -> v%d", before, got)
	}
	if _, ok := s.ShadowStats(); ok {
		t.Fatal("refused reload installed a shadow")
	}
	status, got, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: rows, Strategy: "ED"})
	if status != http.StatusOK {
		t.Fatalf("score: %d: %s", status, bad.Error)
	}
	for j := range want.scores {
		if got.Scores[j] != want.scores[j] || got.Decisions[j] != want.decisions[j] {
			t.Fatalf("row %d: served %v/%q after a refused reload, want %v/%q",
				j, got.Scores[j], got.Decisions[j], want.scores[j], want.decisions[j])
		}
	}
}

// TestMonitorMetricsExposition: /metrics carries the build-info gauge
// always, and the drift gauges once monitoring is armed.
func TestMonitorMetricsExposition(t *testing.T) {
	_, ts := newV2TestServer(t, Config{
		Strategy: core.ED,
		Monitor:  monitor.Config{WindowRows: 64, Buckets: 2, MinRows: 16},
	})
	postBatch(t, ts, trainingRows(t), 0, 32)
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for _, want := range []string{
		`targad_build_info{version=`,
		"targad_monitor_enabled 1",
		"targad_monitor_status",
		"targad_monitor_window_rows 32",
		"targad_monitor_max_feature_psi",
		"targad_monitor_score_psi",
		"targad_shadow_active 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}
