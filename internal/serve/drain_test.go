package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"targad/internal/faultinject"
	"targad/internal/wire"
)

// TestCanceledJobsDroppedBeforeDispatch pins the cancellation contract
// of the micro-batcher: a job whose client disconnected while it sat
// in the queue (a closed connection, a router hedge that lost) is
// dropped before it costs an inference pass, answered with its
// context's error, and counted in targad_serve_canceled_total.
func TestCanceledJobsDroppedBeforeDispatch(t *testing.T) {
	s, _ := newTestServer(t, Config{MaxBatch: 16})

	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	const dead = 4
	deadJobs := make([]*job, dead)
	for i := range deadJobs {
		deadJobs[i] = &job{
			x:        rowsMatrix(testRows(1, int64(100+i))),
			identify: true,
			ctx:      canceled,
			resp:     make(chan jobResult, 1),
		}
		s.queue <- deadJobs[i]
	}
	live := &job{
		x:        rowsMatrix(testRows(1, 7)),
		identify: true,
		ctx:      context.Background(),
		resp:     make(chan jobResult, 1),
	}
	s.queue <- live

	res := <-live.resp
	if res.err != nil {
		t.Fatalf("live job failed: %v", res.err)
	}
	if len(res.scores) != 1 {
		t.Fatalf("live job returned %d scores, want 1", len(res.scores))
	}
	for i, j := range deadJobs {
		r := <-j.resp
		if !errors.Is(r.err, context.Canceled) {
			t.Fatalf("dead job %d error = %v, want context.Canceled", i, r.err)
		}
	}
	if got := s.metrics.canceled.Load(); got != dead {
		t.Fatalf("canceled counter = %d, want %d", got, dead)
	}
	// The canceled rows never reached inference: only the live row was
	// scored.
	if got := s.metrics.rows.Load(); got != 1 {
		t.Fatalf("rows scored = %d, want 1 (canceled jobs must not reach inference)", got)
	}
}

// TestGracefulDrainMixedLoad drives concurrent JSON + binary load,
// stalls one batch mid-inference, and shuts the listener down while
// that batch is in flight: every request the server accepted must
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

	// Let traffic flow, then stall one batch mid-inference so shutdown
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
