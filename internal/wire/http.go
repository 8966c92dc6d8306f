package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"
)

// HTTP binding. Every HTTP layer of the stack (serve, registry, fleet)
// negotiates the protocol and writes its answers through these
// functions, so a binary client parses one failure shape end to end
// and a JSON client one body, {"error": msg}.

// IsFrame reports whether a request with header h carries a wire frame
// (its Content-Type is ContentType); anything else is JSON.
func IsFrame(h http.Header) bool { return strings.HasPrefix(h.Get("Content-Type"), ContentType) }

// WriteError answers status with msg in the client's protocol: an error
// frame (AppendError) when frame is set, else the JSON body
// {"error": msg}. A positive retryAfter is advertised as a Retry-After
// header in whole seconds, rounded up.
func WriteError(w http.ResponseWriter, frame bool, status int, msg string, retryAfter time.Duration) {
	if retryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((retryAfter+time.Second-1)/time.Second)))
	}
	if !frame {
		WriteJSON(w, status, errorBody{Error: msg})
		return
	}
	w.Header().Set("Content-Type", ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(AppendError(nil, status, msg))
}

// errorBody is the JSON error answer.
type errorBody struct {
	Error string `json:"error"`
}

// jsonWriter is a pooled encode buffer: one json.Encoder bound to one
// bytes.Buffer, so WriteJSON never rebuilds encoder state per response.
type jsonWriter struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var jsonPool = sync.Pool{New: func() any {
	jw := &jsonWriter{}
	jw.enc = json.NewEncoder(&jw.buf)
	return jw
}}

// WriteJSON answers status with v encoded as one line of JSON; a value
// that cannot be encoded turns the answer into a 500.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	jw := jsonPool.Get().(*jsonWriter)
	jw.buf.Reset()
	if err := jw.enc.Encode(v); err != nil {
		jw.buf.Reset()
		fmt.Fprintf(&jw.buf, "{\"error\":%q}\n", err.Error())
		status = http.StatusInternalServerError
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_, _ = w.Write(jw.buf.Bytes())
	jsonPool.Put(jw)
}
