package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"targad/internal/core"
	"targad/internal/wire"
)

// serveF32Tol bounds a served f32 score against the offline f64
// reference — the same contract core's f32_tolerance_test.go pins
// (measured ~2e-7 on the fixture; the serve bound only needs to catch
// wiring mistakes, not re-pin the kernels).
const serveF32Tol = 1e-5

func TestParsePrecision(t *testing.T) {
	cases := []struct {
		in   string
		want Precision
		ok   bool
	}{
		{"", F64, true},
		{"f64", F64, true},
		{"Float64", F64, true},
		{" F32 ", F32, true},
		{"float32", F32, true},
		{"f16", 0, false},
	}
	for _, tc := range cases {
		got, ok := ParsePrecision(tc.in)
		if ok != tc.ok || (ok && got != tc.want) {
			t.Fatalf("ParsePrecision(%q) = %v, %v; want %v, %v", tc.in, got, ok, tc.want, tc.ok)
		}
	}
	if F64.String() != "f64" || F32.String() != "f32" {
		t.Fatal("Precision.String drifted from the flag values")
	}
}

// TestServeF32WithinTolerance serves the fixture on the float32 path
// (batching off and on) and checks every HTTP answer against the
// offline float64 reference: scores within tolerance, decisions
// identical.
func TestServeF32WithinTolerance(t *testing.T) {
	rows := testRows(12, 321)
	want := offlineExpect(t, loadFixtureModel(t), rows, core.MSP)

	for _, cfg := range []Config{
		{MaxBatch: 1, Precision: F32},
		{MaxBatch: 32, Precision: F32},
	} {
		_, ts := newTestServer(t, cfg)
		status, ok, bad := postScore(t, http.DefaultClient, ts.URL, scoreRequest{Instances: rows, Strategy: "MSP", Probabilities: true})
		if status != http.StatusOK {
			t.Fatalf("status %d: %s", status, bad.Error)
		}
		if len(ok.Scores) != len(want.scores) {
			t.Fatalf("%d scores, want %d", len(ok.Scores), len(want.scores))
		}
		for i, s := range ok.Scores {
			if d := math.Abs(s - want.scores[i]); d > serveF32Tol {
				t.Fatalf("score %d: f32 serve %v vs offline f64 %v (diff %g)", i, s, want.scores[i], d)
			}
		}
		for i, dec := range ok.Decisions {
			if dec != want.decisions[i] {
				t.Fatalf("decision %d flipped: %q vs %q", i, dec, want.decisions[i])
			}
		}
		for i, prow := range ok.Probabilities {
			for j, p := range prow {
				if d := math.Abs(p - want.probs.At(i, j)); d > serveF32Tol {
					t.Fatalf("prob (%d,%d): %v vs %v", i, j, p, want.probs.At(i, j))
				}
			}
		}
	}
}

// TestServeF32MatchesInferF32 pins served f32 to offline f32 bit for
// bit: on an f32 server, JSON rows and f32 binary frames score exactly
// as core.InferF32 does on the same rows (the JSON rows as sent, the
// frame's rows widened) — scores, ED decisions and probabilities. The
// f32 GEMM chooses its kernels from the weight shape alone, so a row's
// bits do not depend on the rows it shares a pass with: at MaxBatch 1
// every row is its own pass and must still equal InferF32 over the
// whole request, and the last pass sends requests from several clients
// at once, each of which must equal InferF32 on its own rows.
func TestServeF32MatchesInferF32(t *testing.T) {
	m := loadFixtureModel(t)
	if err := m.EnableF32(); err != nil {
		t.Fatal(err)
	}
	check := func(what string, rows [][]float64, scores []float64, decisions []string, prob func(i, j int) float64) error {
		want, err := m.InferF32(context.Background(), rowsMatrix(rows), core.InferOptions{Strategies: []core.OODStrategy{core.ED}, Probs: true})
		if err != nil {
			return err
		}
		if len(scores) != len(want.Scores) || len(decisions) != len(want.Scores) {
			return fmt.Errorf("%s: %d scores and %d decisions, want %d", what, len(scores), len(decisions), len(want.Scores))
		}
		for i, s := range want.Scores {
			if scores[i] != s {
				return fmt.Errorf("%s row %d: served score %v != InferF32 %v", what, i, scores[i], s)
			}
			if k := want.Kinds[core.ED][i].String(); decisions[i] != k {
				return fmt.Errorf("%s row %d: served decision %q != InferF32 %q", what, i, decisions[i], k)
			}
			for j := 0; j < want.Probs.Cols; j++ {
				if p := prob(i, j); p != want.Probs.At(i, j) {
					return fmt.Errorf("%s prob (%d,%d): served %v != InferF32 %v", what, i, j, p, want.Probs.At(i, j))
				}
			}
		}
		return nil
	}
	// post sends one /score body and returns the 200 response body. It
	// reports failures as errors, so the concurrent pass below can call
	// it off the test goroutine.
	post := func(ts *httptest.Server, contentType string, body []byte) ([]byte, error) {
		resp, err := ts.Client().Post(ts.URL+"/score", contentType, bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %q", resp.StatusCode, raw)
		}
		return raw, err
	}
	// roundTrip scores n rows as JSON and as an f32 frame and checks
	// both responses.
	roundTrip := func(ts *httptest.Server, what string, n int, seed int64) error {
		rows := testRows(n, seed)
		rows32 := make([][]float32, n)
		widened := make([][]float64, n)
		for i, row := range rows {
			rows32[i] = make([]float32, len(row))
			widened[i] = make([]float64, len(row))
			for j, v := range row {
				rows32[i][j] = float32(v)
				widened[i][j] = float64(float32(v))
			}
		}
		body, err := json.Marshal(scoreRequest{Instances: rows, Strategy: "ED", Probabilities: true})
		if err != nil {
			return err
		}
		raw, err := post(ts, "application/json", body)
		if err != nil {
			return fmt.Errorf("%s JSON: %w", what, err)
		}
		var got scoreResponse
		if err := json.Unmarshal(raw, &got); err != nil {
			return fmt.Errorf("%s JSON: %w", what, err)
		}
		if err := check(what+" JSON", rows, got.Scores, got.Decisions, func(i, j int) float64 { return got.Probabilities[i][j] }); err != nil {
			return err
		}
		frame, err := wire.AppendRequestF32(nil, rows32, int(core.ED), true)
		if err != nil {
			return err
		}
		if raw, err = post(ts, wire.ContentType, frame); err != nil {
			return fmt.Errorf("%s f32 frame: %w", what, err)
		}
		bin, err := wire.DecodeResponse(raw)
		if err != nil {
			return fmt.Errorf("%s f32 frame: %w", what, err)
		}
		decisions := make([]string, len(bin.Decisions))
		for i, k := range bin.Decisions {
			decisions[i] = k.String()
		}
		return check(what+" f32 frame", widened, bin.Scores, decisions, bin.Probs.At)
	}

	for _, cfg := range []Config{
		{MaxBatch: 1, Strategy: core.ED, Precision: F32},
		{MaxBatch: 32, Strategy: core.ED, Precision: F32},
	} {
		_, ts := newTestServer(t, cfg)
		for n := 1; n <= 24; n += 23 {
			if err := roundTrip(ts, fmt.Sprintf("MaxBatch %d, %d rows", cfg.MaxBatch, n), n, int64(500+n)); err != nil {
				t.Fatal(err)
			}
		}
	}

	_, ts := newTestServer(t, Config{MaxBatch: 32, Strategy: core.ED, Precision: F32})
	const clients, iters = 8, 4
	var wg sync.WaitGroup
	fails := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				n := 1 + (c+it)%7
				if err := roundTrip(ts, fmt.Sprintf("client %d, request %d, %d rows", c, it, n), n, int64(600+10*c+it)); err != nil {
					fails <- err
					return
				}
			}
		}()
	}
	wg.Wait()
	close(fails)
	for err := range fails {
		t.Fatal(err)
	}
}

// TestServeF32RetiredModelUnchanged: a model handed to SetModel keeps
// its own float32 weights after it retires. Two more installs follow
// it, the second a model with different weights; the retired model's
// InferF32 scores must not move by a bit.
func TestServeF32RetiredModelUnchanged(t *testing.T) {
	s, _ := newTestServer(t, Config{Precision: F32})
	a := loadFixtureModel(t)
	if _, err := s.SetModel(a, "a"); err != nil {
		t.Fatal(err)
	}
	x := rowsMatrix(testRows(6, 77))
	before, err := a.InferF32(context.Background(), x, core.InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := append([]float64(nil), before.Scores...)

	if _, err := s.SetModel(loadFixtureModel(t), "fixture"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.SetModel(fitCandidate(t), "fitted"); err != nil {
		t.Fatal(err)
	}
	after, err := a.InferF32(context.Background(), x, core.InferOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i, sc := range after.Scores {
		if math.Float64bits(sc) != math.Float64bits(want[i]) {
			t.Fatalf("retired model's score %d moved from %v to %v", i, want[i], sc)
		}
	}
}

// TestServeF32Shadow: shadow evaluation in f32 mode scores the
// candidate on the f32 path too; with an identical candidate file the
// deltas are exactly zero (same path, same kernels, same bytes).
func TestServeF32Shadow(t *testing.T) {
	s, ts := newTestServer(t, Config{Precision: F32, ShadowSample: 1})
	shadowServedFile(t, s)
	if status, _, bad := postScore(t, http.DefaultClient, ts.URL, scoreRequest{Instances: testRows(5, 55)}); status != http.StatusOK {
		t.Fatalf("status %d: %s", status, bad.Error)
	}
	waitShadow(t, s, 1)
	rep := s.shadowSnapshot()
	if rep.MaxAbsDelta != 0 {
		t.Fatalf("identical candidate on the same f32 path must have zero delta, got %g", rep.MaxAbsDelta)
	}
	if rep.Flips != 0 {
		t.Fatalf("identical candidate flipped %d decisions", rep.Flips)
	}
}
