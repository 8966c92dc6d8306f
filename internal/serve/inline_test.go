package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"targad/internal/activelearn"
	"targad/internal/core"
	"targad/internal/faultinject"
	"targad/internal/mat"
	"targad/internal/wire"
)

// inlineBatch is the MaxBatch of the multi-pass tests; inlineRows
// spans three full passes and a short fourth.
const (
	inlineBatch = 16
	inlineRows  = 3*inlineBatch + 5
)

// narrowRows returns rows narrowed to float32, and those values
// widened back: the rows an f32 frame of them scores on.
func narrowRows(rows [][]float64) (rows32 [][]float32, widened [][]float64) {
	rows32 = make([][]float32, len(rows))
	widened = make([][]float64, len(rows))
	for i, row := range rows {
		rows32[i] = make([]float32, len(row))
		widened[i] = make([]float64, len(row))
		for j, v := range row {
			rows32[i][j] = float32(v)
			widened[i][j] = float64(float32(v))
		}
	}
	return rows32, widened
}

// waitFor polls cond until it holds, failing the test after 5s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// TestInlinePassesBitwiseIdentical: a request of more than MaxBatch
// rows scores on its handler in ceil(rows/MaxBatch) passes, and its
// answer — scores, decisions, probabilities — is bitwise the offline
// answer for the whole request, over f64 frames, f32 frames and JSON.
func TestInlinePassesBitwiseIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: inlineBatch, Strategy: core.ED})
	ref := loadFixtureModel(t)
	batch := testRows(inlineRows, 808)
	rows32, widened := narrowRows(batch)
	const passes = (inlineRows + inlineBatch - 1) / inlineBatch

	counted := func(t *testing.T, send func()) {
		t.Helper()
		before := s.metrics.batches.Load()
		send()
		if got := s.metrics.batches.Load() - before; got != passes {
			t.Fatalf("%d-row request ran %d passes, want %d", inlineRows, got, passes)
		}
	}
	t.Run("f64-frame", func(t *testing.T) {
		frame, err := wire.AppendRequestF64(nil, batch, int(core.ED), true)
		if err != nil {
			t.Fatal(err)
		}
		counted(t, func() { requireBitwise(t, scoreFrame(t, ts, frame), offlineExpect(t, ref, batch, core.ED), true) })
	})
	t.Run("f32-frame", func(t *testing.T) {
		frame, err := wire.AppendRequestF32(nil, rows32, int(core.ED), true)
		if err != nil {
			t.Fatal(err)
		}
		counted(t, func() { requireBitwise(t, scoreFrame(t, ts, frame), offlineExpect(t, ref, widened, core.ED), true) })
	})
	t.Run("json", func(t *testing.T) {
		want := offlineExpect(t, ref, batch, core.ED)
		counted(t, func() {
			status, got, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: batch, Strategy: "ED", Probabilities: true})
			if status != http.StatusOK {
				t.Fatalf("status %d: %s", status, bad.Error)
			}
			if len(got.Scores) != inlineRows || len(got.Decisions) != inlineRows || len(got.Probabilities) != inlineRows {
				t.Fatalf("answer holds %d scores, %d decisions, %d probability rows, want %d each",
					len(got.Scores), len(got.Decisions), len(got.Probabilities), inlineRows)
			}
			for i := range want.scores {
				if got.Scores[i] != want.scores[i] || got.Decisions[i] != want.decisions[i] {
					t.Fatalf("row %d: served (%v, %s), offline (%v, %s)", i, got.Scores[i], got.Decisions[i], want.scores[i], want.decisions[i])
				}
				for j, p := range got.Probabilities[i] {
					if p != want.probs.At(i, j) {
						t.Fatalf("row %d class %d: served probability %v, offline %v", i, j, p, want.probs.At(i, j))
					}
				}
			}
		})
	})
}

// TestInlineReloadKeepsGeneration: a reload that lands between two
// passes of a request leaves the whole answer on the
// generation the request was admitted on, under one model_version.
func TestInlineReloadKeepsGeneration(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{MaxBatch: inlineBatch, Strategy: core.ED})
	first := s.ModelVersion()
	batch := testRows(inlineRows, 909)
	want := offlineExpect(t, loadFixtureModel(t), batch, core.ED)
	frame, err := wire.AppendRequestF64(nil, batch, int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}
	cand := fitCandidate(t)

	// The first pass sleeps in the slow-score probe; the reload lands
	// while it does, so the three passes after it run past the reload.
	faultinject.ArmDelay(faultinject.ServeSlowScore, 300*time.Millisecond, 1)
	type answer struct {
		status int
		raw    []byte
		err    error
	}
	done := make(chan answer, 1)
	go func() {
		status, raw, err := tryPostFrame(ts, frame, false)
		done <- answer{status, raw, err}
	}()
	waitFor(t, "the first pass to reach the slow-score probe", func() bool {
		return faultinject.Fired(faultinject.ServeSlowScore) >= 1
	})
	second, err := s.SetModel(cand, "candidate")
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 0 {
		t.Fatal("the request finished before the reload; nothing was tested")
	}
	ans := <-done
	if ans.err != nil || ans.status != http.StatusOK {
		t.Fatalf("request across a reload: status %d, %v", ans.status, ans.err)
	}
	got, err := wire.DecodeResponse(ans.raw)
	if err != nil {
		t.Fatal(err)
	}
	if got.ModelVersion != first {
		t.Fatalf("answer carries model_version %d, want %d (the generation it was admitted on)", got.ModelVersion, first)
	}
	requireBitwise(t, got, want, false)

	// The candidate really scores these rows differently, so the check
	// above would have seen a pass on it.
	after := scoreFrame(t, ts, frame)
	if after.ModelVersion != second {
		t.Fatalf("request after the reload: model_version %d, want %d", after.ModelVersion, second)
	}
	differs := false
	for i, v := range after.Scores {
		differs = differs || v != want.scores[i]
	}
	if !differs {
		t.Fatal("the reloaded candidate scores every row like the fixture; the test cannot tell generations apart")
	}
}

// TestInlineFrameFaults: a multi-pass frame cut short, or running past
// its announced block, answers 400 with an error frame and not one
// score byte, although every pass before the fault was scored.
func TestInlineFrameFaults(t *testing.T) {
	s, ts := newTestServer(t, Config{MaxBatch: inlineBatch, Strategy: core.ED})
	good, err := wire.AppendRequestF64(nil, testRows(inlineRows, 3), int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name    string
		frame   []byte
		passes  int64
		errPart string
	}{
		{"truncated", good[:len(good)-16], 3, "truncated feature block"},
		{"trailing-bytes", append(append([]byte(nil), good...), 1, 2, 3), 4, "trailing bytes"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			before := s.metrics.batches.Load()
			// Chunked, so the Content-Length cross-check cannot catch
			// the fault before the payload is read.
			status, raw := postFrame(t, ts, tc.frame, true)
			if status != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", status)
			}
			code, msg, err := wire.DecodeErrorFrame(raw)
			if err != nil {
				t.Fatalf("answer is not an error frame: %v (%d bytes)", err, len(raw))
			}
			if code != http.StatusBadRequest || !strings.Contains(msg, tc.errPart) {
				t.Fatalf("error frame %d %q, want 400 mentioning %q", code, msg, tc.errPart)
			}
			if got := s.metrics.batches.Load() - before; got != tc.passes {
				t.Fatalf("%d passes scored before the fault, want %d", got, tc.passes)
			}
		})
	}
}

// TestInlineClientGone: a client that leaves mid-request stops its
// request at the next pass, counted in canceled_total — whether
// it drops the connection mid-frame (the next pass's read fails) or
// while a JSON request scores (the next pass finds the context done).
func TestInlineClientGone(t *testing.T) {
	defer faultinject.Reset()
	s, ts := newTestServer(t, Config{MaxBatch: inlineBatch, Strategy: core.ED})
	rows := testRows(10*inlineBatch, 5)

	// send posts body under ctx and reports when the client call ends.
	send := func(ctx context.Context, body io.Reader, contentType string) <-chan struct{} {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/score", body)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Content-Type", contentType)
		done := make(chan struct{})
		go func() {
			defer close(done)
			if resp, err := ts.Client().Do(req); err == nil {
				resp.Body.Close()
			}
		}()
		return done
	}
	stopped := func(t *testing.T, canceled0, batches0, passes int64) {
		t.Helper()
		waitFor(t, "the request to count as canceled", func() bool { return s.metrics.canceled.Load() == canceled0+1 })
		if got := s.metrics.batches.Load() - batches0; got != passes {
			t.Fatalf("%d passes ran, want %d: scoring must stop at the pass after the client left", got, passes)
		}
	}

	t.Run("frame", func(t *testing.T) {
		frame, err := wire.AppendRequestF64(nil, rows, int(core.ED), false)
		if err != nil {
			t.Fatal(err)
		}
		canceled0, batches0 := s.metrics.canceled.Load(), s.metrics.batches.Load()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		pr, pw := io.Pipe()
		done := send(ctx, pr, wire.ContentType)
		// The header and two passes of rows; the third pass waits on a
		// body the client never finishes.
		if _, err := pw.Write(frame[:wire.RequestHeaderSize+2*inlineBatch*fixtureDim*8]); err != nil {
			t.Fatal(err)
		}
		waitFor(t, "two passes", func() bool { return s.metrics.batches.Load()-batches0 == 2 })
		cancel()
		pw.CloseWithError(context.Canceled) // the transport waits on its body copy
		<-done
		stopped(t, canceled0, batches0, 2)
	})

	t.Run("json", func(t *testing.T) {
		body, err := json.Marshal(scoreRequest{Instances: rows})
		if err != nil {
			t.Fatal(err)
		}
		canceled0, batches0 := s.metrics.canceled.Load(), s.metrics.batches.Load()
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		faultinject.ArmDelay(faultinject.ServeSlowScore, 200*time.Millisecond, 1)
		done := send(ctx, bytes.NewReader(body), "application/json")
		waitFor(t, "the first pass to reach the slow-score probe", func() bool {
			return faultinject.Fired(faultinject.ServeSlowScore) >= 1
		})
		cancel()
		<-done
		stopped(t, canceled0, batches0, 1)
	})
}

// TestInlineConcurrentTaps: two big frames score at once, on two
// handlers, with drift monitoring and a shadow model on. Every answer
// is bitwise the offline one, and by the time the last response
// arrives the window and the shadow have seen every pass.
func TestInlineConcurrentTaps(t *testing.T) {
	s, ts := newV2TestServer(t, Config{MaxBatch: inlineBatch, Strategy: core.ED, ShadowSample: 1})
	shadowServedFile(t, s)
	ref := loadFixtureModel(t)
	const senders, iters = 2, 3
	const passes = (inlineRows + inlineBatch - 1) / inlineBatch
	var wg sync.WaitGroup
	errs := make(chan string, senders)
	for c := 0; c < senders; c++ {
		batch := testRows(inlineRows, int64(40+c))
		want := offlineExpect(t, ref, batch, core.ED)
		frame, err := wire.AppendRequestF64(nil, batch, int(core.ED), false)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				status, raw, err := tryPostFrame(ts, frame, false)
				if err != nil || status != http.StatusOK {
					errs <- fmt.Sprintf("sender %d: status %d, %v", c, status, err)
					return
				}
				got, err := wire.DecodeResponse(raw)
				if err != nil {
					errs <- fmt.Sprintf("sender %d: decode: %v", c, err)
					return
				}
				for r := range want.scores {
					if got.Scores[r] != want.scores[r] || got.Decisions[r].String() != want.decisions[r] {
						errs <- fmt.Sprintf("sender %d row %d: served answer differs from offline", c, r)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
	if d := getDrift(t, ts); d.TotalRows != senders*iters*inlineRows {
		t.Fatalf("drift window saw %d rows, want %d", d.TotalRows, senders*iters*inlineRows)
	}
	waitShadow(t, s, senders*iters*passes)
}

// sampledFrames serves cfg with QueueDepth 1 and MaxBatch 16, lets arm
// prepare the server, then sends five 4096-row f64 frames one at a
// time, calling check after each response with the rows served so far.
// Meanwhile it samples the goroutine count and fails if it ever rises
// more than 8 above the idle baseline: every sampled pass must run on
// its request's handler, inside the one admitted request, never on a
// goroutine of its own.
func sampledFrames(t *testing.T, cfg Config, arm func(*Server), check func(s *Server, rows int64)) {
	t.Helper()
	cfg.QueueDepth, cfg.MaxBatch, cfg.Strategy = 1, 16, core.ED
	s, ts := newTestServer(t, cfg)
	arm(s)
	const rows, frames = 4096, 5
	frame, err := wire.AppendRequestF64(nil, testRows(rows, 17), int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}
	baseline := runtime.NumGoroutine()
	var peak atomic.Int64
	stop, polled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(polled)
		for {
			if n := int64(runtime.NumGoroutine()); n > peak.Load() {
				peak.Store(n)
			}
			select {
			case <-stop:
				return
			case <-time.After(20 * time.Microsecond):
			}
		}
	}()
	for i := 1; i <= frames; i++ {
		scoreFrame(t, ts, frame)
		check(s, int64(i*rows))
	}
	close(stop)
	<-polled
	if extra := peak.Load() - int64(baseline); extra > 8 {
		t.Fatalf("goroutines peaked %d above the idle baseline of %d, want at most 8", extra, baseline)
	}
}

// TestSampledPassesRunUnderAdmission: with a shadow re-scoring every
// pass, the shadow's stats are complete when the response arrives —
// 256 passes and 4096 rows more per 4096-row frame, read once without
// waiting — and the re-scoring starts no goroutine.
func TestSampledPassesRunUnderAdmission(t *testing.T) {
	arm := func(s *Server) { shadowServedFile(t, s) }
	sampledFrames(t, Config{ShadowSample: 1}, arm, func(s *Server, rows int64) {
		st, _ := s.ShadowStats()
		if want := rows / 16; st.Batches != want || st.Rows != rows {
			t.Fatalf("at the response, the shadow had scored %d passes and %d rows, want %d and %d", st.Batches, st.Rows, want, rows)
		}
	})
}

// TestSampledOffersRunUnderAdmission is the acquisition twin: with
// every pass sampled and no labeled-row filter, every served row has
// been offered to the queue when its response arrives, and the offers
// start no goroutine.
func TestSampledOffersRunUnderAdmission(t *testing.T) {
	q := activelearn.New(activelearn.Config{Budget: 64})
	sampledFrames(t, Config{Acquire: q, AcquireSample: 1}, func(*Server) {}, func(_ *Server, rows int64) {
		if got := q.Stats().Offered; got != rows {
			t.Fatalf("at the response, %d rows offered to the queue, want the %d served", got, rows)
		}
	})
}

// TestInlineMemoryBoundedByMaxBatch: after a 4096-row frame, no
// pooled inference replica's workspace and no per-pass matrix of the
// request's arena holds room for more than MaxBatch rows, at the
// default of 64 and at 1. Only the answer — one score, decision and
// probability row per request row — scales with the frame.
func TestInlineMemoryBoundedByMaxBatch(t *testing.T) {
	const rows = 4096
	frame, err := wire.AppendRequestF64(nil, testRows(rows, 11), int(core.ED), true)
	if err != nil {
		t.Fatal(err)
	}
	for _, maxBatch := range []int{64, 1} {
		t.Run(fmt.Sprintf("MaxBatch=%d", maxBatch), func(t *testing.T) {
			s, err := New(Config{MaxBatch: maxBatch, Strategy: core.ED})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			m := loadFixtureModel(t)
			if _, err := s.SetModel(m, "test"); err != nil {
				t.Fatal(err)
			}
			req := httptest.NewRequest(http.MethodPost, "/score", bytes.NewReader(frame))
			req.Header.Set("Content-Type", wire.ContentType)
			w := httptest.NewRecorder()
			a := new(reqArena)
			if s.scoreRequest(w, req, a); w.Code != http.StatusOK {
				t.Fatalf("status %d", w.Code)
			}
			if got, err := wire.DecodeResponse(w.Body.Bytes()); err != nil || len(got.Scores) != rows {
				t.Fatalf("answer: %v", err)
			}

			checkRows := func(name string, x *mat.Matrix) {
				t.Helper()
				if x == nil || x.Cols == 0 {
					t.Fatalf("%s is empty; nothing was checked", name)
				}
				if n := cap(x.Data) / x.Cols; n > maxBatch {
					t.Errorf("%s holds room for %d rows, over MaxBatch %d", name, n, maxBatch)
				}
			}
			checkRows("arena feature matrix", a.x)
			checkRows("arena pass probabilities", a.res.Probs)
			if n := cap(a.res.Scores); n > maxBatch {
				t.Errorf("arena pass scores hold room for %d rows, over MaxBatch %d", n, maxBatch)
			}

			// The model's pooled f64 replicas: every *mat.Matrix field of
			// every layer (forward workspace, backward workspace, kept
			// input).
			matrixType := reflect.TypeOf((*mat.Matrix)(nil))
			replicas := reflect.ValueOf(m).Elem().FieldByName("clfFree").FieldByName("items")
			if replicas.Len() == 0 {
				t.Fatal("the model pools no replica; nothing was checked")
			}
			for i := 0; i < replicas.Len(); i++ {
				layers := replicas.Index(i).Elem().FieldByName("Layers")
				for li := 0; li < layers.Len(); li++ {
					l := layers.Index(li).Elem()
					for f := 0; f < l.NumField(); f++ {
						fv := l.Field(f)
						if fv.Type() != matrixType || fv.IsNil() {
							continue
						}
						cols := int(fv.Elem().FieldByName("Cols").Int())
						if n := fv.Elem().FieldByName("Data").Cap() / max(cols, 1); n > maxBatch {
							t.Errorf("replica %d layer %d %s holds room for %d rows, over MaxBatch %d",
								i, li, l.Type().Field(f).Name, n, maxBatch)
						}
					}
				}
			}
		})
	}
}
