package wire

import (
	"bytes"
	"encoding/json"
	"flag"
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

// Headers the serving stack routes on and stamps. A /score request
// names its model by HeaderModel (registry mode; it must be manifested)
// or its tenant by HeaderTenant: the router places a request on its
// ring by the tenant, and a registry maps the tenant to a model (an
// unknown tenant gets the default model). /healthz and /readyz stamp
// which process answered (HeaderInstance) and which model generation it
// serves (HeaderModelVersion); a registry adds its comma-separated hot
// model names (HeaderModels), which fleet probers read.
const (
	HeaderModel        = "X-Targad-Model"
	HeaderTenant       = "X-Targad-Tenant"
	HeaderModels       = "X-Targad-Models"
	HeaderInstance     = "X-Targad-Instance"
	HeaderModelVersion = "X-Targad-Model-Version"
)

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

// HTTPTimeouts bounds a listener against slow, stalled, or malicious
// clients. A server built without them holds a goroutine and a
// connection for as long as a client cares to dribble bytes
// (slowloris); every targad listener — targad-serve and targad-router
// alike — is constructed through NewHTTPServer so the same bounds
// apply fleet-wide.
type HTTPTimeouts struct {
	// ReadHeader bounds how long a client may take to send the request
	// headers (the classic slowloris window).
	ReadHeader time.Duration
	// Read bounds the whole request read, headers plus body.
	Read time.Duration
	// Write bounds the response write, from the end of the request
	// read; it must cover the largest streamed binary response.
	Write time.Duration
	// Idle bounds how long a keep-alive connection may sit between
	// requests.
	Idle time.Duration
}

// DefaultHTTPTimeouts returns the production defaults: tight on
// headers, generous on bodies (a 32 MiB frame on a slow link is
// legitimate traffic), bounded keep-alive.
func DefaultHTTPTimeouts() HTTPTimeouts {
	return HTTPTimeouts{
		ReadHeader: 5 * time.Second,
		Read:       60 * time.Second,
		Write:      60 * time.Second,
		Idle:       120 * time.Second,
	}
}

// RegisterFlags mounts the -read-header-timeout, -read-timeout,
// -write-timeout, and -idle-timeout flags on fs, seeded with t's
// current values, so every cmd exposes the same tuning surface.
func (t *HTTPTimeouts) RegisterFlags(fs *flag.FlagSet) {
	fs.DurationVar(&t.ReadHeader, "read-header-timeout", t.ReadHeader, "max time a client may take to send request headers (0 disables)")
	fs.DurationVar(&t.Read, "read-timeout", t.Read, "max time for the whole request read, headers plus body (0 disables)")
	fs.DurationVar(&t.Write, "write-timeout", t.Write, "max time for the response write (0 disables)")
	fs.DurationVar(&t.Idle, "idle-timeout", t.Idle, "max keep-alive idle time between requests (0 disables)")
}

// NewHTTPServer builds the hardened http.Server every targad listener
// runs behind: handler plus the timeout bounds.
func NewHTTPServer(addr string, h http.Handler, t HTTPTimeouts) *http.Server {
	return &http.Server{
		Addr:              addr,
		Handler:           h,
		ReadHeaderTimeout: t.ReadHeader,
		ReadTimeout:       t.Read,
		WriteTimeout:      t.Write,
		IdleTimeout:       t.Idle,
	}
}
