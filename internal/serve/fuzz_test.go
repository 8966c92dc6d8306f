package serve

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"testing"

	"targad/internal/core"
	"targad/internal/feedback"
	"targad/internal/wire"
)

// fuzzBodyLimit is the fuzz servers' MaxBodyBytes: small enough that
// the 413 paths are reachable, large enough for multi-row batches.
const fuzzBodyLimit = 1 << 16

// answerAllocBound is the most one request may allocate for an n-byte
// body: a fixed allowance for net/http's recorder, the JSON codec and
// the forward pass's working set, plus a per-byte factor covering the
// decoded rows and their per-row inference buffers.
func answerAllocBound(n int) uint64 { return 4<<20 + 1024*uint64(n) }

// checkAnswer sends one POST with body to handle and enforces the
// front-end contract on untrusted bytes: no panic, a 2xx or 4xx answer
// (never 5xx) in the protocol the endpoint speaks to this request, and
// allocation bounded by the body length. /score answers a frame
// request in frames; every other answer is JSON.
func checkAnswer(t *testing.T, handle http.HandlerFunc, path string, frame bool, body []byte) {
	t.Helper()
	req := httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	if frame {
		req.Header.Set("Content-Type", wire.ContentType)
	}
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handle(w, req)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > answerAllocBound(len(body)) {
		t.Fatalf("%s allocated %d bytes for a %d-byte body (bound %d)", path, alloc, len(body), answerAllocBound(len(body)))
	}
	status, raw := w.Code, w.Body.Bytes()
	if status < 200 || status >= 500 || (status >= 300 && status < 400) {
		t.Fatalf("%s (frame=%v): status %d, want 2xx or 4xx (body %q)", path, frame, status, raw)
	}
	if frame && path == "/score" {
		if status == http.StatusOK {
			if _, err := wire.DecodeResponse(raw); err != nil {
				t.Fatalf("%s: 200 answer is not a score frame: %v", path, err)
			}
			return
		}
		code, _, err := wire.DecodeErrorFrame(raw)
		if err != nil || code != status {
			t.Fatalf("%s: %d answer is not a matching error frame (code %d, err %v): %q", path, status, code, err, raw)
		}
		return
	}
	if ct := w.Header().Get("Content-Type"); ct != "application/json" {
		t.Fatalf("%s (frame=%v): %d answer has Content-Type %q, want JSON", path, frame, status, ct)
	}
	if status >= 400 {
		var e errorResponse
		if err := json.Unmarshal(raw, &e); err != nil || e.Error == "" {
			t.Fatalf("%s: %d answer is not {\"error\": ...} (%v): %q", path, status, err, raw)
		}
	} else if !json.Valid(raw) {
		t.Fatalf("%s: %d answer is not JSON: %q", path, status, raw)
	}
}

// FuzzScoreRequest drives HandleScore with arbitrary bodies, each sent
// once as JSON and once as a wire frame. Seeds: a
// valid JSON body, valid f64 and f32 frames, a truncated frame and a
// frame with trailing bytes. Contract: checkAnswer's.
func FuzzScoreRequest(f *testing.F) {
	rows := testRows(3, 11)
	js, err := json.Marshal(scoreRequest{Instances: rows, Strategy: "ED", Probabilities: true})
	if err != nil {
		f.Fatal(err)
	}
	f64, err := wire.AppendRequestF64(nil, rows, int(core.ED), true)
	if err != nil {
		f.Fatal(err)
	}
	rows32 := make([][]float32, len(rows))
	for i, row := range rows {
		rows32[i] = make([]float32, len(row))
		for j, v := range row {
			rows32[i][j] = float32(v)
		}
	}
	f32, err := wire.AppendRequestF32(nil, rows32, -1, false)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(js)
	f.Add(f64)
	f.Add(f32)
	f.Add(f64[:len(f64)-5])
	f.Add(append(append([]byte(nil), f32...), 1, 2, 3))

	s, _ := newTestServer(f, Config{Strategy: core.ED, MaxBodyBytes: fuzzBodyLimit})
	f.Fuzz(func(t *testing.T, body []byte) {
		checkAnswer(t, s.HandleScore, "/score", false, body)
		checkAnswer(t, s.HandleScore, "/score", true, body)
	})
}

// FuzzFeedbackRequest drives POST /feedback with arbitrary bodies under
// both Content-Types (/feedback speaks JSON only, so both answer JSON).
// The verdict store is replaced once it holds 1024 rows, so its
// growth cannot masquerade as per-request allocation. Contract:
// checkAnswer's.
func FuzzFeedbackRequest(f *testing.F) {
	for _, req := range []feedbackRequest{
		{Features: testRows(1, 5)[0], Score: 0.75, Decision: "target", Verdict: "target", TargetType: 1},
		{Features: []float64{0.5, 0.25}, Verdict: "benign", ModelVersion: 3},
		{Features: []float64{1}, Verdict: "maybe"},
		{Verdict: "non-target"},
	} {
		raw, err := json.Marshal(req)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"features":[1,2],"verdict":"target"} trailing`))
	f.Add([]byte(`{"features":"x"}`))

	base := f.TempDir()
	var dir string
	var store *feedback.Store
	openStore := func(tb testing.TB) {
		var err error
		if dir, err = os.MkdirTemp(base, "store"); err != nil {
			tb.Fatal(err)
		}
		if store, err = feedback.Open(dir, feedback.Config{}); err != nil {
			tb.Fatal(err)
		}
	}
	openStore(f)
	f.Cleanup(func() { store.Close() })
	s, _ := newTestServer(f, Config{MaxBodyBytes: fuzzBodyLimit, Feedback: store})
	f.Fuzz(func(t *testing.T, body []byte) {
		if store.Len() >= 1024 {
			store.Close()
			os.RemoveAll(dir)
			openStore(t)
			s.cfg.Feedback = store
		}
		checkAnswer(t, s.handleFeedback, "/feedback", false, body)
		checkAnswer(t, s.handleFeedback, "/feedback", true, body)
	})
}
