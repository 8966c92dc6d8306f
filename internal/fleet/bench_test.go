package fleet

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"testing"

	"targad/internal/wire"
)

// BenchmarkRouterScore measures the routed-path overhead: the same
// scoring workload over HTTP against one replica directly and through
// targad-router in front of it (probe loop off, retries idle — the
// steady-state proxy cost of buffer-once + forward + copy-back).
// Divide routed by direct for the overhead factor.
func BenchmarkRouterScore(b *testing.B) {
	router, backends := newFleet(b, 1, nil)
	rt := newRouterServer(b, router)
	rows := testRows(32, 11)
	jsonBody := mustJSONBody(b, rows)
	frame, err := wire.AppendRequestF64(nil, rows, -1, false)
	if err != nil {
		b.Fatal(err)
	}

	run := func(url, contentType string, body []byte) func(*testing.B) {
		return func(b *testing.B) {
			client := &http.Client{}
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				resp, err := client.Post(url+"/score", contentType, bytes.NewReader(body))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := io.Copy(io.Discard, resp.Body); err != nil {
					b.Fatal(err)
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					b.Fatalf("status %d", resp.StatusCode)
				}
			}
		}
	}

	b.Run("direct", run(backends[0].URL, "application/json", jsonBody))
	b.Run("routed", run(rt.URL, "application/json", jsonBody))
	b.Run("direct-binary", run(backends[0].URL, wire.ContentType, frame))
	b.Run("routed-binary", run(rt.URL, wire.ContentType, frame))
}

func mustJSONBody(b *testing.B, rows [][]float64) []byte {
	b.Helper()
	body, err := json.Marshal(map[string]any{"instances": rows})
	if err != nil {
		b.Fatal(err)
	}
	return body
}
