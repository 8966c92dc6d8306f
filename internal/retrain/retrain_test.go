package retrain

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"targad/internal/activelearn"
	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/dataset/synth"
	"targad/internal/feedback"
	"targad/internal/mat"
	"targad/internal/rng"
	"targad/internal/serve"
)

// quickCfg is the fast-fit configuration shared by the live retrain
// and its offline reproduction.
func quickCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.K = 2
	cfg.AEEpochs = 2
	cfg.AELR = 1e-3
	cfg.ClfEpochs = 8
	cfg.ClfLR = 1e-3
	cfg.ClfHidden = []int{16}
	cfg.AEHidden = []int{12, 6}
	return cfg
}

func testBundle(t testing.TB) *dataset.Bundle {
	t.Helper()
	b, err := synth.Generate(synth.KDDCUP99(), synth.Options{
		Scale:          0.03,
		Seed:           7,
		LabeledPerType: 20,
	})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// fitAndSave trains the base model and persists it for serving.
func fitAndSave(t testing.TB, cfg core.Config, seed int64, train *dataset.TrainSet, path string) *core.Model {
	t.Helper()
	m := core.New(cfg, seed)
	if err := m.Fit(context.Background(), train); err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Save(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	return m
}

// trafficRows replays the training distribution: the unlabeled pool
// shuffled deterministically so any contiguous slice is representative.
func trafficRows(t testing.TB, b *dataset.Bundle) [][]float64 {
	t.Helper()
	x := b.Train.Unlabeled
	rows := make([][]float64, x.Rows)
	for i := range rows {
		rows[i] = append([]float64(nil), x.Row(i)...)
	}
	rng.New(1).Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
	return rows
}

func postJSON(t testing.TB, ts *httptest.Server, path string, body any) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+path, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out bytes.Buffer
	out.ReadFrom(resp.Body)
	return resp.StatusCode, out.Bytes()
}

// scoreResp mirrors the /score answer; float64 JSON round-trips
// bitwise (Go marshals the shortest representation that parses back
// exactly), so Scores carries the served values unaltered.
type scoreResp struct {
	ModelVersion int64     `json:"model_version"`
	Scores       []float64 `json:"scores"`
}

func scoreBatch(t testing.TB, ts *httptest.Server, rows [][]float64, lo, n int) scoreResp {
	t.Helper()
	batch := make([][]float64, n)
	for i := range batch {
		batch[i] = rows[(lo+i)%len(rows)]
	}
	status, body := postJSON(t, ts, "/score", map[string]any{"instances": batch})
	if status != http.StatusOK {
		t.Fatalf("/score: status %d: %s", status, body)
	}
	var out scoreResp
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postVerdict(t testing.TB, ts *httptest.Server, features []float64, verdict string, targetType int) {
	t.Helper()
	status, body := postJSON(t, ts, "/feedback", map[string]any{
		"features":    features,
		"verdict":     verdict,
		"target_type": targetType,
	})
	if status != http.StatusOK {
		t.Fatalf("/feedback: status %d: %s", status, body)
	}
}

// queueResp mirrors GET /feedback/queue.
type queueResp struct {
	Items []struct {
		Features []float64 `json:"features"`
		Score    float64   `json:"score"`
		Info     float64   `json:"info"`
	} `json:"items"`
	Depth  int `json:"depth"`
	Budget int `json:"budget"`
}

func getQueue(t testing.TB, ts *httptest.Server, n int) queueResp {
	t.Helper()
	resp, err := ts.Client().Get(fmt.Sprintf("%s/feedback/queue?n=%d", ts.URL, n))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/feedback/queue: status %d", resp.StatusCode)
	}
	var out queueResp
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestFeedbackLifecycle is the closed-loop acceptance: serve a model,
// record analyst verdicts over POST /feedback, watch acquisition
// surface informative rows on GET /feedback/queue, start a cycle with
// POST /retrain, and follow the candidate through shadow evaluation to
// an automatic promotion — no human step after the request. The
// promoted generation's served scores must then be bitwise-reproducible
// offline from the persisted base model, the verdict store, and the
// seed alone.
func TestFeedbackLifecycle(t *testing.T) {
	const batch = 64
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")
	promotedPath := filepath.Join(dir, "promoted.gob")

	b := testBundle(t)
	fitAndSave(t, quickCfg(), 7, b.Train, modelPath)

	store, err := feedback.Open(filepath.Join(dir, "feedback"), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	queue := activelearn.New(activelearn.Config{Budget: 64, Labeled: store.Has})

	srv, err := serve.New(serve.Config{
		ModelPath:     modelPath,
		Strategy:      core.ED,
		ShadowSample:  1.0,
		AcquireSample: 1.0,
		Feedback:      store,
		Acquire:       queue,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	baseVersion := srv.ModelVersion()

	done := make(chan Result, 4)
	fitCfg := quickCfg()
	fitCfg.Checkpoint = core.CheckpointConfig{Path: filepath.Join(dir, "retrain-ckpt.gob")}
	o, err := New(srv, Config{
		Store:         store,
		Train:         func() (*dataset.TrainSet, error) { return b.Train, nil },
		Fit:           fitCfg,
		Seed:          99,
		MinShadowRows: batch,
		// The candidate retrains on new verdicts under another seed, so
		// scores are expected to move; the gate only has to catch a
		// broken fit.
		MaxFlipRate:   1.0,
		MaxScoreDelta: 1.0,
		ShadowTimeout: 60 * time.Second,
		Poll:          5 * time.Millisecond,
		SavePath:      promotedPath,
		OnDone:        func(r Result) { done <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	srv.SetRetrain(o)

	// Serve traffic; acquisition samples every batch.
	rows := trafficRows(t, b)
	for i := 0; i < 4; i++ {
		scoreBatch(t, ts, rows, i*batch, batch)
	}

	// Acquisition: the sampled batches must surface rows to label.
	deadline := time.Now().Add(10 * time.Second)
	var q queueResp
	for {
		q = getQueue(t, ts, 4)
		if len(q.Items) > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("acquisition queue stayed empty after 256 fully-sampled rows")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Label a queued row: the verdict must retire it from acquisition
	// permanently (labeled rows are never re-admitted).
	acquired := q.Items[0].Features
	postVerdict(t, ts, acquired, "target", 0)
	if !store.Has(feedback.Fingerprint(acquired)) {
		t.Fatal("labeled row missing from the verdict store")
	}
	for _, it := range queue.TopN(queue.Len()) {
		if it.Fingerprint == feedback.Fingerprint(acquired) {
			t.Fatal("labeled row still in the acquisition queue")
		}
	}

	// The rest of the analyst session: target verdicts from D_L rows,
	// non-target and benign calls on test rows.
	postVerdict(t, ts, b.Train.Labeled.Row(0), "target", b.Train.LabeledType[0])
	postVerdict(t, ts, b.Train.Labeled.Row(1), "target", b.Train.LabeledType[1])
	postVerdict(t, ts, b.Test.X.Row(0), "non-target", 0)
	postVerdict(t, ts, b.Test.X.Row(1), "non-target", 0)
	postVerdict(t, ts, b.Test.X.Row(2), "benign", 0)
	if store.Len() != 6 {
		t.Fatalf("store holds %d verdicts, want 6", store.Len())
	}

	// Start the cycle: the candidate fits on the merged verdicts,
	// shadows on live traffic, and promotes — all while we do nothing
	// but keep serving.
	status, body := postJSON(t, ts, "/retrain", nil)
	if status != http.StatusAccepted {
		t.Fatalf("POST /retrain: status %d: %s", status, body)
	}
	pumpDeadline := time.Now().Add(120 * time.Second)
	for i := 4; srv.ModelVersion() == baseVersion; i++ {
		if time.Now().After(pumpDeadline) {
			t.Fatalf("no promotion after 120s; retrain status: %+v", o.Status())
		}
		scoreBatch(t, ts, rows, i*batch, batch)
		time.Sleep(10 * time.Millisecond)
	}

	var res Result
	select {
	case res = <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("retrain cycle never reported a result")
	}
	if res.Outcome != "promoted" {
		t.Fatalf("cycle outcome %q (err %q), want promoted", res.Outcome, res.Err)
	}
	if res.Reason != "manual" {
		t.Fatalf("cycle reason %q, want manual", res.Reason)
	}
	if res.Verdicts != 6 {
		t.Fatalf("cycle saw %d verdicts, want 6", res.Verdicts)
	}
	if res.ShadowRows < batch {
		t.Fatalf("promoted on %d shadow rows, want >= %d", res.ShadowRows, batch)
	}
	if v := srv.ModelVersion(); v != res.PromotedVersion || v == baseVersion {
		t.Fatalf("served version %d, promoted version %d, base %d", v, res.PromotedVersion, baseVersion)
	}
	if _, ok := srv.ShadowStats(); ok {
		t.Fatal("shadow evaluation still active after promotion")
	}
	if _, err := os.Stat(promotedPath); err != nil {
		t.Fatalf("promoted model not persisted: %v", err)
	}

	// Bitwise reproduction: the served scores of the promoted model
	// must equal an offline refit from the persisted base model, the
	// verdict store, and the seed — nothing else.
	probe := scoreBatch(t, ts, rows, 0, 8)
	if probe.ModelVersion != res.PromotedVersion {
		t.Fatalf("probe served by v%d, want promoted v%d", probe.ModelVersion, res.PromotedVersion)
	}

	f, err := os.Open(modelPath)
	if err != nil {
		t.Fatal(err)
	}
	baseLoaded, err := core.Load(f)
	f.Close()
	if err != nil {
		t.Fatal(err)
	}
	merged, err := core.MergeFeedback(b.Train, BuildVerdictBatch(store.Snapshot(), 1))
	if err != nil {
		t.Fatal(err)
	}
	offCfg := quickCfg()
	offCfg.WarmStart = baseLoaded.WarmStartState()
	m2 := core.New(offCfg, 99)
	if err := m2.Fit(context.Background(), merged); err != nil {
		t.Fatal(err)
	}
	x := mat.New(8, len(rows[0]))
	for i := 0; i < 8; i++ {
		copy(x.Row(i), rows[i%len(rows)])
	}
	offline, err := m2.Score(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	for i := range offline {
		if probe.Scores[i] != offline[i] {
			t.Fatalf("row %d: served score %v != offline reproduction %v", i, probe.Scores[i], offline[i])
		}
	}
}

// TestRetrainGateFailureKeepsServing: a candidate that fails the
// promotion gate is discarded automatically and the old model keeps
// serving, version unchanged.
func TestRetrainGateFailureKeepsServing(t *testing.T) {
	const batch = 64
	dir := t.TempDir()
	modelPath := filepath.Join(dir, "model.gob")

	b := testBundle(t)
	fitAndSave(t, quickCfg(), 7, b.Train, modelPath)

	store, err := feedback.Open(filepath.Join(dir, "feedback"), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i := 0; i < 3; i++ {
		if _, err := store.Append(feedback.Record{
			Features: append([]float64(nil), b.Test.X.Row(i)...),
			Verdict:  feedback.VerdictTarget,
		}); err != nil {
			t.Fatal(err)
		}
	}

	srv, err := serve.New(serve.Config{
		ModelPath:      modelPath,
		Strategy:       core.ED,
		DisableMonitor: true, // manual trigger path: no drift needed
		ShadowSample:   1.0,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	baseVersion := srv.ModelVersion()

	done := make(chan Result, 1)
	o, err := New(srv, Config{
		Store:         store,
		Train:         func() (*dataset.TrainSet, error) { return b.Train, nil },
		Fit:           quickCfg(),
		Seed:          8, // differs from the base fit: scores must move
		MinShadowRows: 32,
		MaxFlipRate:   1.0,
		MaxScoreDelta: 1e-12, // impossibly tight: the gate must fail
		ShadowTimeout: 60 * time.Second,
		Poll:          5 * time.Millisecond,
		OnDone:        func(r Result) { done <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	srv.SetRetrain(o)

	status, body := postJSON(t, ts, "/retrain", nil)
	if status != http.StatusAccepted {
		t.Fatalf("POST /retrain: status %d: %s", status, body)
	}

	// Keep serving so the shadow gets its sampled rows.
	rows := trafficRows(t, b)
	var res Result
	pumpDeadline := time.Now().Add(120 * time.Second)
wait:
	for i := 0; ; i++ {
		select {
		case res = <-done:
			break wait
		default:
		}
		if time.Now().After(pumpDeadline) {
			t.Fatalf("no cycle result after 120s; retrain status: %+v", o.Status())
		}
		scoreBatch(t, ts, rows, i*batch, batch)
		time.Sleep(10 * time.Millisecond)
	}

	if res.Outcome != "gate-failed" {
		t.Fatalf("cycle outcome %q (err %q), want gate-failed", res.Outcome, res.Err)
	}
	if res.Err == "" {
		t.Fatal("gate failure must carry the measured stats in its error")
	}
	if v := srv.ModelVersion(); v != baseVersion {
		t.Fatalf("gate failure must not change the served model: version %d, want %d", v, baseVersion)
	}
	if _, ok := srv.ShadowStats(); ok {
		t.Fatal("failed candidate still under shadow evaluation")
	}

	// The old model still serves, and /retrain reports the failure.
	out := scoreBatch(t, ts, rows, 0, 4)
	if out.ModelVersion != baseVersion {
		t.Fatalf("post-failure scoring on version %d, want %d", out.ModelVersion, baseVersion)
	}
	resp, err := ts.Client().Get(ts.URL + "/retrain")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var st struct {
		Configured bool `json:"configured"`
		Running    bool `json:"running"`
		LastResult *struct {
			Outcome string `json:"outcome"`
		} `json:"last_result"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if !st.Configured || st.Running || st.LastResult == nil || st.LastResult.Outcome != "gate-failed" {
		t.Fatalf("GET /retrain = %+v, want configured, idle, last outcome gate-failed", st)
	}
}
