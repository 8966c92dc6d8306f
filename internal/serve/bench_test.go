package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"

	"targad/internal/activelearn"
	"targad/internal/core"
	"targad/internal/wire"
)

// BenchmarkServeScore measures end-to-end serving throughput/latency
// over real HTTP for 1 vs 8 concurrent closed-loop clients, each 4-row
// JSON request one inference pass on its own handler. Historical rows
// (from before every request scored on its handler, with a batch=off/on
// axis): BENCH_PR4.json.
func BenchmarkServeScore(b *testing.B) {
	benchServeScore(b, loadFixtureModel(b), F64)
}

// BenchmarkServeScoreF32 is the same workload served on the float32
// inference path (-precision f32); the delta against
// BenchmarkServeScore is the end-to-end win from the f32 kernels.
// Historical rows: BENCH_PR6.json.
func BenchmarkServeScoreF32(b *testing.B) {
	benchServeScore(b, loadFixtureModel(b), F32)
}

// BenchmarkServeScoreMonitored is the same workload over the v2
// fixture, whose persisted profile arms the drift accumulator — the
// delta against BenchmarkServeScore is the monitoring overhead
// (budget: 0 extra allocs/op, <=5% latency). Historical rows:
// BENCH_PR5.json.
func BenchmarkServeScoreMonitored(b *testing.B) {
	m := loadModelFile(b, fixtureV2Path)
	if m.Profile() == nil {
		b.Fatal("v2 fixture carries no profile; monitoring would not arm")
	}
	benchServeScore(b, m, F64)
}

// replayBody is a resettable request body so one http.Request object
// serves every benchmark iteration without per-op reader allocations.
type replayBody struct {
	data []byte
	off  int
}

func (r *replayBody) Read(p []byte) (int, error) {
	if r.off >= len(r.data) {
		return 0, io.EOF
	}
	n := copy(p, r.data[r.off:])
	r.off += n
	return n, nil
}

func (r *replayBody) Close() error { return nil }

// nullResponseWriter swallows the response, reusing one header map, so
// the benchmark counts the serving path's allocations and nothing
// else.
type nullResponseWriter struct {
	h      http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkServeScoreBinary measures the binary protocol's serving
// path in-process (handler invoked directly, no TCP/net/http client
// overhead) so allocs/op reflects the pooled-arena design alone. The
// ci.sh gate holds this at <=9 allocs/op against the JSON path's ~146.
// f32 serves an f32 frame on an f32-precision server: the payload
// widens exactly into the arena's f64 matrix, like every frame, and
// InferF32 narrows it into its replica's workspace for the forward
// pass.
func BenchmarkServeScoreBinary(b *testing.B) {
	rows := testRows(4, 123)
	f64frame, err := wire.AppendRequestF64(nil, rows, int(core.ED), false)
	if err != nil {
		b.Fatal(err)
	}
	rows32, _ := narrowRows(rows)
	f32frame, err := wire.AppendRequestF32(nil, rows32, int(core.ED), false)
	if err != nil {
		b.Fatal(err)
	}

	for _, tc := range []struct {
		name  string
		prec  Precision
		frame []byte
	}{
		{"f64", F64, f64frame},
		{"f32", F32, f32frame},
	} {
		b.Run(tc.name, func(b *testing.B) {
			benchFrame(b, Config{Strategy: core.ED, Precision: tc.prec}, tc.frame)
		})
	}
}

// BenchmarkServeScoreBinaryFrame measures bulk frames in-process at
// the default MaxBatch of 64: each frame scores on its handler, 64 rows
// per pass. f64 serves an f64 frame on an f64 server, f32 an f32 frame
// on an f32 server. The ci.sh gate holds every case to the same small
// allocs/op, so no pass may allocate: one allocation per pass shows as
// 8 more at 512 rows and 64 more at 4096.
func BenchmarkServeScoreBinaryFrame(b *testing.B) {
	for _, prec := range []Precision{F64, F32} {
		for _, n := range []int{512, 4096} {
			rows := testRows(n, 123)
			var frame []byte
			var err error
			if prec == F32 {
				rows32, _ := narrowRows(rows)
				frame, err = wire.AppendRequestF32(nil, rows32, int(core.ED), false)
			} else {
				frame, err = wire.AppendRequestF64(nil, rows, int(core.ED), false)
			}
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/%d", prec, n), func(b *testing.B) {
				benchFrame(b, Config{MaxBatch: 64, Strategy: core.ED, Precision: prec}, frame)
			})
		}
	}
}

// benchFrame serves frame in-process on a server built from cfg over
// the fixture model, calling the handler directly with one replayed
// request, and measures the steady state after warming the pools.
func benchFrame(b *testing.B, cfg Config, frame []byte) {
	s, err := New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetModel(loadFixtureModel(b), "bench"); err != nil {
		b.Fatal(err)
	}
	h := s.Handler()

	body := &replayBody{data: frame}
	req, err := http.NewRequest(http.MethodPost, "/score", body)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.ContentLength = int64(len(frame))
	w := &nullResponseWriter{h: make(http.Header)}

	// Warm the pools so the steady state is what gets measured.
	for i := 0; i < 16; i++ {
		body.off = 0
		h.ServeHTTP(w, req)
	}
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body.off = 0
		h.ServeHTTP(w, req)
	}
	if w.status != http.StatusOK {
		b.Fatalf("status %d", w.status)
	}
}

// BenchmarkServeScoreBinaryHTTP is the over-the-wire twin of
// BenchmarkServeScoreBinary (real client, real listener), comparable
// to BenchmarkServeScore's JSON rows. Named outside the
// ServeScoreBinary/ gate pattern on purpose: net/http's own
// per-request allocations are not the serving path's budget.
func BenchmarkServeScoreBinaryHTTP(b *testing.B) {
	frame, err := wire.AppendRequestF64(nil, testRows(4, 123), int(core.ED), false)
	if err != nil {
		b.Fatal(err)
	}
	s, err := New(Config{Strategy: core.ED})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if _, err := s.SetModel(loadFixtureModel(b), "bench"); err != nil {
		b.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 1}}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := client.Post(ts.URL+"/score", wire.ContentType, bytes.NewReader(frame))
		if err != nil {
			b.Fatal(err)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			b.Fatalf("status %d", resp.StatusCode)
		}
	}
}

func benchServeScore(b *testing.B, model *core.Model, prec Precision) {
	payload, err := json.Marshal(scoreRequest{Instances: testRows(4, 123), Strategy: "ED"})
	if err != nil {
		b.Fatal(err)
	}

	for _, clients := range []int{1, 8} {
		b.Run(fmt.Sprintf("clients=%d", clients), func(b *testing.B) {
			s, err := New(Config{Strategy: core.ED, Precision: prec})
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			if _, err := s.SetModel(model, "bench"); err != nil {
				b.Fatal(err)
			}
			ts := httptest.NewServer(s.Handler())
			defer ts.Close()

			client := &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}
			b.ReportAllocs()
			b.ResetTimer()
			var wg sync.WaitGroup
			per := b.N / clients
			extra := b.N % clients
			for c := 0; c < clients; c++ {
				n := per
				if c < extra {
					n++
				}
				wg.Add(1)
				go func(n int) {
					defer wg.Done()
					for i := 0; i < n; i++ {
						resp, err := client.Post(ts.URL+"/score", "application/json", bytes.NewReader(payload))
						if err != nil {
							b.Error(err)
							return
						}
						_, _ = io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
						if resp.StatusCode != http.StatusOK {
							b.Errorf("status %d", resp.StatusCode)
							return
						}
					}
				}(n)
			}
			wg.Wait()
		})
	}
}

// BenchmarkServeScoreWithAcquisition is the closed-loop overhead gate:
// the binary in-process workload with an acquisition queue armed but
// (virtually) never sampling, proving the sampler's fast path — one
// nil check plus a counter bump — adds zero allocations to the serving
// path. The ci.sh gate holds it to the same <=9 allocs/op budget as
// BenchmarkServeScoreBinary. Historical rows: BENCH_PR9.json.
func BenchmarkServeScoreWithAcquisition(b *testing.B) {
	frame, err := wire.AppendRequestF64(nil, testRows(4, 123), int(core.ED), false)
	if err != nil {
		b.Fatal(err)
	}
	benchFrame(b, Config{
		Strategy: core.ED,
		Acquire:  activelearn.New(activelearn.Config{Budget: 64}),
		// Sampling cadence of one batch per 1e9: the counter never
		// fires within a benchmark run, so the measured path is the
		// non-sampled one every real batch takes between samples.
		AcquireSample: 1e-9,
	}, frame)
}
