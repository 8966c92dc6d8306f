package wire

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

func TestIsFrame(t *testing.T) {
	for ct, want := range map[string]bool{
		ContentType:                      true,
		ContentType + "; version=1":      true,
		"application/json":               false,
		"":                               false,
		"application/x-targad-framework": true, // prefix match, as every layer has always sniffed
	} {
		h := http.Header{}
		if ct != "" {
			h.Set("Content-Type", ct)
		}
		if got := IsFrame(h); got != want {
			t.Errorf("IsFrame(%q) = %v, want %v", ct, got, want)
		}
	}
}

// TestWriteError pins the one protocol-aware error answer: the JSON
// body is byte-for-byte what json.Encoder writes for {"error": msg}
// (HTML-escaped, newline-terminated), a frame answer decodes back to
// its status and message, and Retry-After rounds up to whole seconds.
func TestWriteError(t *testing.T) {
	const msg = `queue <full> & "busy"`
	var want bytes.Buffer
	if err := json.NewEncoder(&want).Encode(map[string]string{"error": msg}); err != nil {
		t.Fatal(err)
	}
	w := httptest.NewRecorder()
	WriteError(w, false, http.StatusTooManyRequests, msg, 1500*time.Millisecond)
	if w.Code != http.StatusTooManyRequests || w.Header().Get("Content-Type") != "application/json" {
		t.Fatalf("JSON answer: status %d, Content-Type %q", w.Code, w.Header().Get("Content-Type"))
	}
	if !bytes.Equal(w.Body.Bytes(), want.Bytes()) {
		t.Fatalf("JSON body %q, want %q", w.Body.Bytes(), want.Bytes())
	}
	if got := w.Header().Get("Retry-After"); got != "2" {
		t.Fatalf("Retry-After %q for 1.5s, want 2", got)
	}

	w = httptest.NewRecorder()
	WriteError(w, true, http.StatusServiceUnavailable, msg, 0)
	if w.Code != http.StatusServiceUnavailable || w.Header().Get("Content-Type") != ContentType {
		t.Fatalf("frame answer: status %d, Content-Type %q", w.Code, w.Header().Get("Content-Type"))
	}
	if _, ok := w.Header()["Retry-After"]; ok {
		t.Fatal("Retry-After set without a retry hint")
	}
	code, got, err := DecodeErrorFrame(w.Body.Bytes())
	if err != nil || code != http.StatusServiceUnavailable || got != msg {
		t.Fatalf("error frame decodes to (%d, %q, %v), want (503, %q, nil)", code, got, err, msg)
	}
}
