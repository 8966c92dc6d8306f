package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"targad/internal/core"
	"targad/internal/faultinject"
	"targad/internal/wire"
)

// TestCanceledRequestsNotScored pins the cancellation contract: a
// request whose client is already gone (a closed connection, a router
// try that timed out) stops before it costs an inference pass, answers
// 499 with its context's error, and counts in
// targad_serve_canceled_total. Dead requests alternate JSON and binary
// frames, so both decoders are covered.
func TestCanceledRequestsNotScored(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 16})

	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	post := func(ctx context.Context, rows [][]float64, frame bool) *httptest.ResponseRecorder {
		t.Helper()
		var body []byte
		var err error
		if frame {
			body, err = wire.AppendRequestF64(nil, rows, -1, false)
		} else {
			body, err = json.Marshal(scoreRequest{Instances: rows})
		}
		if err != nil {
			t.Fatal(err)
		}
		req := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(body)).WithContext(ctx)
		if frame {
			req.Header.Set("Content-Type", wire.ContentType)
		}
		w := httptest.NewRecorder()
		s.HandleScore(w, req)
		return w
	}

	const dead = 4
	for i := 0; i < dead; i++ {
		if w := post(canceled, testRows(1, int64(100+i)), i%2 == 1); w.Code != 499 {
			t.Fatalf("dead request %d answered %d, want 499: %s", i, w.Code, w.Body)
		}
	}
	w := post(context.Background(), testRows(1, 7), false)
	if w.Code != http.StatusOK {
		t.Fatalf("live request answered %d: %s", w.Code, w.Body)
	}
	var res scoreResponse
	if err := json.Unmarshal(w.Body.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if len(res.Scores) != 1 {
		t.Fatalf("live request returned %d scores, want 1", len(res.Scores))
	}
	if got := s.metrics.canceled.Load(); got != dead {
		t.Fatalf("canceled counter = %d, want %d", got, dead)
	}
	// The canceled rows never reached inference: only the live row was
	// scored.
	if got := s.metrics.rows.Load(); got != 1 {
		t.Fatalf("rows scored = %d, want 1 (canceled requests must not reach inference)", got)
	}
}

// TestGracefulDrainMixedLoad drives concurrent JSON + binary load,
// stalls one pass mid-inference, and shuts the listener down while
// that pass is in flight: every request the server accepted must
// complete with 200 (at least one of them finishing after shutdown
// began), and requests arriving afterwards are refused at the
// connection instead of being half-answered. Runs under -race in the
// CI smoke.
func TestGracefulDrainMixedLoad(t *testing.T) {
	t.Cleanup(faultinject.Reset)
	s, ts := newTestServer(t, Config{MaxBatch: 8})

	rows := testRows(2, 42)
	jsonBody, err := json.Marshal(scoreRequest{Instances: rows})
	if err != nil {
		t.Fatal(err)
	}
	frame, err := wire.AppendRequestF64(nil, rows, -1, false)
	if err != nil {
		t.Fatal(err)
	}

	var (
		stop      atomic.Bool
		shutAt    atomic.Int64 // ns timestamp when Shutdown began; 0 = not yet
		okBefore  atomic.Int64
		okAfter   atomic.Int64
		badStatus atomic.Int64
	)
	client := &http.Client{}
	var wg sync.WaitGroup
	const workers = 6
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for !stop.Load() {
				var resp *http.Response
				var err error
				if w%2 == 0 {
					resp, err = client.Post(ts.URL+"/score", "application/json", bytes.NewReader(jsonBody))
				} else {
					resp, err = client.Post(ts.URL+"/score", wire.ContentType, bytes.NewReader(frame))
				}
				if err != nil {
					// Only acceptable once shutdown has begun: the
					// listener refused or reset the connection.
					if shutAt.Load() == 0 {
						t.Errorf("request failed before shutdown: %v", err)
					}
					return
				}
				status := resp.StatusCode
				resp.Body.Close()
				if status != http.StatusOK {
					badStatus.Add(1)
					t.Errorf("request answered %d, want 200 (accepted requests must complete)", status)
					return
				}
				if shutAt.Load() != 0 {
					okAfter.Add(1)
				} else {
					okBefore.Add(1)
				}
			}
		}(w)
	}

	// Let traffic flow, then stall one pass mid-inference so shutdown
	// provably begins with requests in flight.
	deadline := time.Now().Add(5 * time.Second)
	for okBefore.Load() < 20 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if okBefore.Load() < 20 {
		t.Fatal("load never ramped up")
	}
	faultinject.ArmDelay(faultinject.ServeSlowScore, 100*time.Millisecond, 1)
	for faultinject.Fired(faultinject.ServeSlowScore) == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	shutAt.Store(time.Now().UnixNano())
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := ts.Config.Shutdown(shutCtx); err != nil {
		t.Fatalf("graceful shutdown: %v", err)
	}
	stop.Store(true)
	wg.Wait()
	s.Close()

	if badStatus.Load() != 0 {
		t.Fatalf("%d accepted requests did not complete with 200", badStatus.Load())
	}
	if okAfter.Load() == 0 {
		t.Fatal("no in-flight request completed after shutdown began (drain not exercised)")
	}

	// The drained listener refuses new work.
	if _, err := client.Post(ts.URL+"/score", "application/json", bytes.NewReader(jsonBody)); err == nil {
		t.Fatal("request after shutdown unexpectedly succeeded")
	}
}

// TestScoreAfterClose503: once Close has run, every /score request is
// answered 503 without scoring, whatever its size — a 1-row JSON
// request and a frame of several MaxBatch passes alike.
func TestScoreAfterClose503(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: inlineBatch, Strategy: core.ED})
	frame, err := wire.AppendRequestF64(nil, testRows(inlineRows, 9), int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}
	jsonBody, err := json.Marshal(scoreRequest{Instances: testRows(1, 9)})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	for _, tc := range []struct {
		name        string
		body        []byte
		contentType string
	}{
		{"json", jsonBody, "application/json"},
		{"frame", frame, wire.ContentType},
	} {
		req := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(tc.body))
		req.Header.Set("Content-Type", tc.contentType)
		w := httptest.NewRecorder()
		s.HandleScore(w, req)
		if w.Code != http.StatusServiceUnavailable {
			t.Errorf("%s after Close answered %d, want 503", tc.name, w.Code)
		}
	}
	if got := s.metrics.rows.Load(); got != 0 {
		t.Fatalf("%d rows scored after Close, want 0", got)
	}
}

// TestCloseDuringTappedTraffic: Close while requests score with every
// pass re-scored on a shadow model. Requests answer 200 or, once Close
// has run, 503.
func TestCloseDuringTappedTraffic(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: 2, ShadowSample: 1})
	shadowServedFile(t, s)
	req := scoreRequest{Instances: testRows(6, 1)}
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				status, _, _, err := tryScore(ts.Client(), ts.URL, req)
				if err != nil {
					t.Error(err)
					return
				}
				if status != http.StatusOK && status != http.StatusServiceUnavailable {
					t.Errorf("request answered %d, want 200 or 503", status)
					return
				}
			}
		}()
	}
	waitFor(t, "tapped passes", func() bool { return s.metrics.batches.Load() >= 10 })
	s.Close()
	wg.Wait()
}
