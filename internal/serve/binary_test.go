package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"

	"targad/internal/core"
	"targad/internal/feedback"
	"targad/internal/wire"
)

// postFrame posts one binary frame to /score and returns the status
// and raw response body. chunked strips the Content-Length (the server
// then cannot cross-check it against the frame header).
func postFrame(t testing.TB, ts *httptest.Server, frame []byte, chunked bool) (int, []byte) {
	t.Helper()
	status, raw, err := tryPostFrame(ts, frame, chunked)
	if err != nil {
		t.Fatal(err)
	}
	return status, raw
}

// tryPostFrame is postFrame for goroutines other than the test's own:
// a transport failure comes back as an error instead of failing the
// test.
func tryPostFrame(ts *httptest.Server, frame []byte, chunked bool) (int, []byte, error) {
	var body io.Reader = bytes.NewReader(frame)
	if chunked {
		body = struct{ io.Reader }{body} // hide the length: forces chunked encoding
	}
	resp, err := ts.Client().Post(ts.URL+"/score", wire.ContentType, body)
	if err != nil {
		return 0, nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	return resp.StatusCode, raw, err
}

// scoreFrame posts a frame expecting success and decodes the response.
func scoreFrame(t testing.TB, ts *httptest.Server, frame []byte) *wire.Response {
	t.Helper()
	status, raw := postFrame(t, ts, frame, false)
	if status != http.StatusOK {
		if _, msg, err := wire.DecodeErrorFrame(raw); err == nil {
			t.Fatalf("binary score: status %d: %s", status, msg)
		}
		t.Fatalf("binary score: status %d", status)
	}
	r, err := wire.DecodeResponse(raw)
	if err != nil {
		t.Fatalf("decode response frame: %v", err)
	}
	return r
}

func scrapeMetrics(t testing.TB, ts *httptest.Server) string {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

// requireBitwise compares a decoded binary response against the
// offline reference, element for element with ==.
func requireBitwise(t testing.TB, got *wire.Response, want offline, probs bool) {
	t.Helper()
	if len(got.Scores) != len(want.scores) {
		t.Fatalf("scores: %d rows, want %d", len(got.Scores), len(want.scores))
	}
	for i := range want.scores {
		if got.Scores[i] != want.scores[i] {
			t.Fatalf("row %d: score %v != offline %v", i, got.Scores[i], want.scores[i])
		}
	}
	if got.Decisions == nil {
		t.Fatal("response carries no decisions")
	}
	for i, k := range got.Decisions {
		if k.String() != want.decisions[i] {
			t.Fatalf("row %d: decision %q != offline %q", i, k.String(), want.decisions[i])
		}
	}
	if !probs {
		if got.Probs != nil {
			t.Fatal("probabilities present without the request flag")
		}
		return
	}
	if got.Probs == nil {
		t.Fatal("probabilities missing")
	}
	if got.Probs.Rows != want.probs.Rows || got.Probs.Cols != want.probs.Cols {
		t.Fatalf("probs %dx%d, want %dx%d", got.Probs.Rows, got.Probs.Cols, want.probs.Rows, want.probs.Cols)
	}
	for i, v := range want.probs.Data {
		if got.Probs.Data[i] != v {
			t.Fatalf("probs[%d]: %v != offline %v", i, got.Probs.Data[i], v)
		}
	}
}

// TestBinaryScoreParity: a binary f64 frame must produce scores,
// decisions, and probabilities bitwise-identical to both the offline
// reference and the JSON path answering the same rows.
func TestBinaryScoreParity(t *testing.T) {
	_, ts := newTestServer(t, Config{Strategy: core.ED})
	ref := loadFixtureModel(t)
	for _, rows := range []int{1, 7, 33} {
		batch := testRows(rows, int64(100+rows))
		want := offlineExpect(t, ref, batch, core.ED)

		frame, err := wire.AppendRequestF64(nil, batch, int(core.ED), true)
		if err != nil {
			t.Fatal(err)
		}
		got := scoreFrame(t, ts, frame)
		requireBitwise(t, got, want, true)

		status, jgot, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: batch, Strategy: "ED", Probabilities: true})
		if status != http.StatusOK {
			t.Fatalf("JSON twin: %d: %s", status, bad.Error)
		}
		for i := range jgot.Scores {
			if jgot.Scores[i] != got.Scores[i] {
				t.Fatalf("row %d: JSON score %v != binary score %v", i, jgot.Scores[i], got.Scores[i])
			}
			if jgot.Decisions[i] != got.Decisions[i].String() {
				t.Fatalf("row %d: JSON decision %q != binary %q", i, jgot.Decisions[i], got.Decisions[i])
			}
		}

		// Default strategy (no strategy byte): server default is ED too.
		frame, err = wire.AppendRequestF64(nil, batch, -1, false)
		if err != nil {
			t.Fatal(err)
		}
		got = scoreFrame(t, ts, frame)
		requireBitwise(t, got, want, false)
	}
}

// TestBinaryF32Frames: an f32 frame widens each element exactly at
// decode, so on an f64 server answers are bitwise-identical to the f64
// path on the widened rows, and on an f32-precision server they match
// the JSON path on the same widened rows bit for bit (both narrow them
// back exactly for the forward pass).
func TestBinaryF32Frames(t *testing.T) {
	rows32 := make([][]float32, 9)
	widened := make([][]float64, len(rows32))
	src := testRows(len(rows32), 321)
	for i, row := range src {
		rows32[i] = make([]float32, len(row))
		widened[i] = make([]float64, len(row))
		for j, v := range row {
			f := float32(v)
			rows32[i][j] = f
			widened[i][j] = float64(f)
		}
	}
	frame, err := wire.AppendRequestF32(nil, rows32, int(core.ED), true)
	if err != nil {
		t.Fatal(err)
	}

	t.Run("f64-server", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Strategy: core.ED})
		want := offlineExpect(t, loadFixtureModel(t), widened, core.ED)
		requireBitwise(t, scoreFrame(t, ts, frame), want, true)
	})

	t.Run("f32-server", func(t *testing.T) {
		_, ts := newTestServer(t, Config{Strategy: core.ED, Precision: F32})
		got := scoreFrame(t, ts, frame)
		status, jgot, bad := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: widened, Strategy: "ED", Probabilities: true})
		if status != http.StatusOK {
			t.Fatalf("JSON twin: %d: %s", status, bad.Error)
		}
		for i := range jgot.Scores {
			if jgot.Scores[i] != got.Scores[i] {
				t.Fatalf("row %d: f32 binary score %v != f32 JSON score %v", i, got.Scores[i], jgot.Scores[i])
			}
			if jgot.Decisions[i] != got.Decisions[i].String() {
				t.Fatalf("row %d: decision %q != %q", i, got.Decisions[i], jgot.Decisions[i])
			}
		}
	})
}

// TestBinaryMixedProtocolConcurrent drives binary and JSON clients
// at once; every response must stay
// bitwise-identical to the offline reference for its own rows. Run
// under -race this is the mixed-protocol acceptance.
func TestBinaryMixedProtocolConcurrent(t *testing.T) {
	_, ts := newTestServer(t, Config{
		MaxBatch:   64,
		QueueDepth: 512,
		Strategy:   core.ED,
	})
	ref := loadFixtureModel(t)
	const clients = 8
	const iters = 6
	batches := make([][][]float64, clients)
	wants := make([]offline, clients)
	for c := range batches {
		batches[c] = testRows(3+c, int64(1000+c))
		wants[c] = offlineExpect(t, ref, batches[c], core.ED)
	}
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			binaryClient := c%2 == 0
			for i := 0; i < iters; i++ {
				if binaryClient {
					frame, err := wire.AppendRequestF64(nil, batches[c], int(core.ED), true)
					if err != nil {
						errs <- err
						return
					}
					var body io.Reader = bytes.NewReader(frame)
					resp, err := ts.Client().Post(ts.URL+"/score", wire.ContentType, body)
					if err != nil {
						errs <- err
						return
					}
					raw, _ := io.ReadAll(resp.Body)
					resp.Body.Close()
					if resp.StatusCode == http.StatusTooManyRequests {
						continue // shed under load is legal
					}
					r, err := wire.DecodeResponse(raw)
					if err != nil {
						errs <- err
						return
					}
					for j := range wants[c].scores {
						if r.Scores[j] != wants[c].scores[j] || r.Decisions[j].String() != wants[c].decisions[j] {
							t.Errorf("client %d: binary answer diverged from offline", c)
							return
						}
					}
				} else {
					status, got, _ := postScore(t, ts.Client(), ts.URL, scoreRequest{Instances: batches[c], Strategy: "ED", Probabilities: true})
					if status == http.StatusTooManyRequests {
						continue
					}
					if status != http.StatusOK {
						t.Errorf("client %d: JSON status %d", c, status)
						return
					}
					for j := range wants[c].scores {
						if got.Scores[j] != wants[c].scores[j] || got.Decisions[j] != wants[c].decisions[j] {
							t.Errorf("client %d: JSON answer diverged from offline", c)
							return
						}
					}
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestBinaryStreamedResponse: batches past wire.StreamChunkRows rows
// come back as a chunk sequence with the streamed flag, still
// bitwise-identical to offline scoring.
func TestBinaryStreamedResponse(t *testing.T) {
	_, ts := newTestServer(t, Config{Strategy: core.ED})
	rows := wire.StreamChunkRows + wire.StreamChunkRows/2
	batch := testRows(rows, 555)
	frame, err := wire.AppendRequestF64(nil, batch, int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}
	got := scoreFrame(t, ts, frame)
	if !got.Streamed {
		t.Fatalf("%d-row response must set the streamed flag", rows)
	}
	if got.Chunks != 2 {
		t.Fatalf("%d rows arrived in %d chunks, want 2", rows, got.Chunks)
	}
	want := offlineExpect(t, loadFixtureModel(t), batch, core.ED)
	requireBitwise(t, got, want, false)
}

// rawRequestHeader hand-builds a request frame header so tests can
// announce geometry no encoder would.
func rawRequestHeader(rows, features uint32, flags, strategy byte) []byte {
	b := []byte{'T', 'G', 'A', 'D', wire.Version, wire.TypeRequest, flags, strategy, 0, 0, 0, 0, 0, 0, 0, 0}
	binary.LittleEndian.PutUint32(b[8:12], rows)
	binary.LittleEndian.PutUint32(b[12:16], features)
	return b
}

// TestBinaryFrameFaults is the malformed-input suite: truncated
// headers and payloads, header/Content-Length disagreement, trailing
// bytes, corrupt magic — every one must come back as a typed wire
// error frame with the right status, never a hang or panic, and the
// connection-level accounting must show up in /metrics.
func TestBinaryFrameFaults(t *testing.T) {
	_, ts := newTestServer(t, Config{Strategy: core.ED, MaxBodyBytes: 1 << 16})
	good, err := wire.AppendRequestF64(nil, testRows(2, 1), int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}

	corrupt := append([]byte(nil), good...)
	corrupt[0] = 'X' // bad magic

	badVersion := append([]byte(nil), good...)
	badVersion[4] = 99

	oversize := rawRequestHeader(1<<20, 100, 0, 0) // announces ~800 MB

	cases := []struct {
		name    string
		frame   []byte
		chunked bool
		status  int
		errPart string
	}{
		{"truncated-header", good[:10], true, http.StatusBadRequest, "truncated request header"},
		{"truncated-payload", good[:len(good)-16], true, http.StatusBadRequest, "truncated feature block"},
		{"length-mismatch", good[:len(good)-16], false, http.StatusBadRequest, "Content-Length"},
		{"trailing-bytes", append(append([]byte(nil), good...), 1, 2, 3), true, http.StatusBadRequest, "trailing bytes"},
		{"trailing-vs-length", append(append([]byte(nil), good...), 1, 2, 3), false, http.StatusBadRequest, "Content-Length"},
		{"bad-magic", corrupt, false, http.StatusBadRequest, "magic"},
		{"bad-version", badVersion, false, http.StatusBadRequest, "version"},
		{"announced-too-large", oversize, true, http.StatusRequestEntityTooLarge, "exceeds"},
		{"empty-body", nil, true, http.StatusBadRequest, "truncated request header"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, raw := postFrame(t, ts, tc.frame, tc.chunked)
			if status != tc.status {
				t.Fatalf("status %d, want %d (body %q)", status, tc.status, raw)
			}
			code, msg, err := wire.DecodeErrorFrame(raw)
			if err != nil {
				t.Fatalf("error response is not a wire error frame: %v (%q)", err, raw)
			}
			if code != tc.status {
				t.Fatalf("error frame code %d, want %d", code, tc.status)
			}
			if !strings.Contains(msg, tc.errPart) {
				t.Fatalf("error %q does not mention %q", msg, tc.errPart)
			}
		})
	}

	// A good frame still scores after all that abuse.
	if got := scoreFrame(t, ts, good); len(got.Scores) != 2 {
		t.Fatalf("post-fault request returned %d scores", len(got.Scores))
	}

	text := scrapeMetrics(t, ts)
	for _, want := range []string{
		"targad_serve_request_too_large_total 1",
		"targad_serve_binary_requests_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}
}

// TestJSONBodyLimit413: oversized JSON bodies map to 413 with the
// too-large counter, matching the binary path's treatment — on /score
// and on POST /feedback alike.
func TestJSONBodyLimit413(t *testing.T) {
	store, err := feedback.Open(t.TempDir(), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { store.Close() })
	_, ts := newTestServer(t, Config{Strategy: core.ED, MaxBodyBytes: 256, Feedback: store})
	score, err := json.Marshal(scoreRequest{Instances: testRows(8, 3)})
	if err != nil {
		t.Fatal(err)
	}
	verdict, err := json.Marshal(feedbackRequest{Features: testRows(1, 4)[0], Verdict: "target"})
	if err != nil {
		t.Fatal(err)
	}
	for i, tc := range []struct {
		path string
		body []byte
	}{{"/score", score}, {"/feedback", verdict}} {
		resp, err := ts.Client().Post(ts.URL+tc.path, "application/json", bytes.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		raw, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("oversized %d-byte JSON body on %s: status %d, want 413 (%s)", len(tc.body), tc.path, resp.StatusCode, raw)
		}
		if want := `{"error":"request body exceeds the 256-byte limit"}` + "\n"; string(raw) != want {
			t.Fatalf("%s: body %q, want %q", tc.path, raw, want)
		}
		if want := fmt.Sprintf("targad_serve_request_too_large_total %d\n", i+1); !strings.Contains(scrapeMetrics(t, ts), want) {
			t.Fatalf("%s: 413 not counted in targad_serve_request_too_large_total (want %q)", tc.path, want)
		}
	}
}

// TestBinaryRowsObserved: binary frames must feed the drift window
// exactly like JSON rows (f32 entries widened element-exact) and be
// sampled by an active shadow, whose stats are complete at the
// response.
func TestBinaryRowsObserved(t *testing.T) {
	s, ts := newV2TestServer(t, Config{
		Strategy:     core.ED,
		ShadowSample: 1,
	})
	shadowServedFile(t, s)

	rows := testRows(16, 99)
	frame, err := wire.AppendRequestF64(nil, rows, int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}
	const batches = 3
	for i := 0; i < batches; i++ {
		scoreFrame(t, ts, frame)
	}
	d := getDrift(t, ts)
	if !d.Enabled {
		t.Fatal("v2 fixture must arm monitoring")
	}
	if d.TotalRows != int64(batches*len(rows)) {
		t.Fatalf("drift window saw %d rows from %d binary batches, want %d", d.TotalRows, batches, batches*len(rows))
	}
	waitShadow(t, s, batches)

	// f32 frames are observed as their exactly widened rows.
	rows32 := make([][]float32, 4)
	for i := range rows32 {
		rows32[i] = make([]float32, fixtureDim)
		for j, v := range rows[i] {
			rows32[i][j] = float32(v)
		}
	}
	f32frame, err := wire.AppendRequestF32(nil, rows32, int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}
	scoreFrame(t, ts, f32frame)
	if d := getDrift(t, ts); d.TotalRows != int64(batches*len(rows)+len(rows32)) {
		t.Fatalf("f32 frame rows not observed: window %d", d.TotalRows)
	}
	waitShadow(t, s, batches+1)
}

// TestBinaryF32FrameWindow: the drift window cannot tell which
// encoding carried the traffic. f32 frames, widened exactly at decode,
// leave the window (feature and score histograms) in the same state as
// JSON carrying the widened rows, at either serving precision.
func TestBinaryF32FrameWindow(t *testing.T) {
	for _, prec := range []Precision{F64, F32} {
		cfg := Config{Strategy: core.MSP, Precision: prec}
		_, tsFrame := newV2TestServer(t, cfg)
		_, tsJSON := newV2TestServer(t, cfg)
		for batch := 0; batch < 4; batch++ {
			rows32 := make([][]float32, 40)
			widened := make([][]float64, len(rows32))
			for i, row := range testRows(len(rows32), int64(70+batch)) {
				rows32[i] = make([]float32, len(row))
				widened[i] = make([]float64, len(row))
				for j, v := range row {
					rows32[i][j] = float32(v)
					widened[i][j] = float64(float32(v))
				}
			}
			frame, err := wire.AppendRequestF32(nil, rows32, -1, false)
			if err != nil {
				t.Fatal(err)
			}
			scoreFrame(t, tsFrame, frame)
			if status, _, bad := postScore(t, tsJSON.Client(), tsJSON.URL, scoreRequest{Instances: widened}); status != http.StatusOK {
				t.Fatalf("JSON twin: %d: %s", status, bad.Error)
			}
		}
		got, want := getDrift(t, tsFrame), getDrift(t, tsJSON)
		if !got.Enabled || got.TotalRows != 160 {
			t.Fatalf("%s: f32 frames observed as enabled=%v rows=%d, want 160 rows", prec, got.Enabled, got.TotalRows)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: f32-frame window diverged from JSON on the widened rows:\nframe: %+v\njson:  %+v", prec, got, want)
		}
	}
}

// waitShadow checks that the active shadow has scored exactly want
// passes. It reads the stats once, without waiting: a sampled pass is
// re-scored on its request's handler, so the stats are complete by the
// time the response arrives.
func waitShadow(t testing.TB, s *Server, want int64) {
	t.Helper()
	if st, _ := s.ShadowStats(); st.Batches != want {
		t.Fatalf("shadow scored %d passes by the response, want %d", st.Batches, want)
	}
}
