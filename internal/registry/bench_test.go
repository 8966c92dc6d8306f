package registry

import (
	"io"
	"net/http"
	"testing"

	"targad/internal/core"
	"targad/internal/wire"
)

// replayBody is a resettable request body so one http.Request serves
// every iteration without per-op reader allocations (mirrors the
// serve package's benchmark harness).
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

// nullResponseWriter swallows the response, reusing one header map.
type nullResponseWriter struct {
	h      http.Header
	status int
}

func (w *nullResponseWriter) Header() http.Header         { return w.h }
func (w *nullResponseWriter) Write(b []byte) (int, error) { return len(b), nil }
func (w *nullResponseWriter) WriteHeader(status int)      { w.status = status }

// BenchmarkRegistryScoreBinary is the multi-model twin of the serve
// package's BenchmarkServeScoreBinary: the binary serving path through
// the registry handler on the tenantless default route. The ci.sh gate
// holds it to the same <=9 allocs/op budget — the registry's fast path
// must add ZERO allocations over the single-model server.
func BenchmarkRegistryScoreBinary(b *testing.B) {
	frame, err := wire.AppendRequestF64(nil, defaultRows(4, 123), int(core.ED), false)
	if err != nil {
		b.Fatal(err)
	}
	r, _ := newTestRegistry(b, nil)
	h := r.Handler()

	body := &replayBody{data: frame}
	req, err := http.NewRequest(http.MethodPost, "/score", body)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.ContentLength = int64(len(frame))
	w := &nullResponseWriter{h: make(http.Header)}

	// Warm the arenas so the steady state is what gets measured.
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

// BenchmarkRegistryScoreBinaryHot measures the same workload on a
// non-default hot model — the acquire/pin/release path the tenant
// routes pay. The delta against BenchmarkRegistryScoreBinary is the
// registry's per-request overhead for non-default models.
func BenchmarkRegistryScoreBinaryHot(b *testing.B) {
	fx := tenantModels(b)
	frame, err := wire.AppendRequestF64(nil, fx.rows, int(core.ED), false)
	if err != nil {
		b.Fatal(err)
	}
	r, _ := newTestRegistry(b, nil)
	h := r.Handler()

	body := &replayBody{data: frame}
	req, err := http.NewRequest(http.MethodPost, "/score", body)
	if err != nil {
		b.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.ContentLength = int64(len(frame))
	req.Header.Set(wire.HeaderModel, "alpha")
	w := &nullResponseWriter{h: make(http.Header)}

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
