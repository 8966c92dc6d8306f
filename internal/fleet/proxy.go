package fleet

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"slices"
	"strings"
	"time"

	"targad/internal/wire"
)

// hopHeaders are not forwarded in either direction (RFC 9110 §7.6.1),
// nor is any field a message's Connection header names (copyHeaders).
var hopHeaders = map[string]bool{
	"Connection":          true,
	"Keep-Alive":          true,
	"Proxy-Authenticate":  true,
	"Proxy-Authorization": true,
	"Te":                  true,
	"Trailer":             true,
	"Transfer-Encoding":   true,
	"Upgrade":             true,
}

// copyHeaders copies src's end-to-end fields into dst: every field but
// the fixed hop-by-hop set and those src's Connection header names.
func copyHeaders(dst, src http.Header) {
	conn := src["Connection"]
	for k, vv := range src {
		if hopHeaders[http.CanonicalHeaderKey(k)] || connectionNames(conn, k) {
			continue
		}
		dst[k] = vv
	}
}

// connectionNames reports whether a Connection header's comma-separated
// option list names the field k.
func connectionNames(conn []string, k string) bool {
	for _, v := range conn {
		for v != "" {
			var opt string
			opt, v, _ = strings.Cut(v, ",")
			if strings.EqualFold(strings.TrimSpace(opt), k) {
				return true
			}
		}
	}
	return false
}

// attempt is one forwarded copy of a request: the first try or a
// retry.
type attempt struct {
	resp   *http.Response
	err    error
	cancel context.CancelFunc // releases the try context; call after the body is consumed
}

// succeeded reports whether this attempt's response should be written
// to the client as-is. Backend 4xx passes through (the client's
// mistake is the client's to see, byte-for-byte); transport errors,
// 5xx, and 429 (a shedding replica) are the router's to retry.
func (a attempt) succeeded() bool {
	return a.err == nil && a.resp.StatusCode < 500 && a.resp.StatusCode != http.StatusTooManyRequests
}

// discard releases a failed attempt: its response body (if any) is
// drained so the connection can be reused, and its try context
// canceled.
func (a attempt) discard() {
	if a.resp != nil {
		drainClose(a.resp.Body)
	}
	if a.cancel != nil {
		a.cancel()
	}
}

// drainClose reads up to 4 KiB of a body before closing it, so a short
// response leaves its connection reusable.
func drainClose(body io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(body, 4<<10))
	body.Close()
}

// proxyOp names one forwarded operation: the backend method and path,
// whether the body is a wire frame, and the retry policy it is
// allowed. Retries re-send the buffered body, so they are reserved for
// idempotent operations; a non-idempotent POST runs exactly one
// attempt.
type proxyOp struct {
	method     string
	path       string
	binary     bool
	maxRetries int
}

// routes are the replica endpoints the router forwards, with the
// methods each takes.
var routes = []struct {
	path    string
	methods []string
}{
	{"/score", []string{http.MethodPost}},
	{"/feedback", []string{http.MethodPost}},
	{"/feedback/queue", []string{http.MethodGet}},
	{"/reload", []string{http.MethodPost}},
	{"/drift", []string{http.MethodGet}},
	{"/retrain", []string{http.MethodGet, http.MethodPost}},
}

// forwarder returns the handler that forwards path to the request's
// home replica (the tenant's ring walk), query string and body passed
// through opaquely. The retry policy comes from the method: a GET is an
// idempotent read (the acquisition queue, a drift report, retrain
// status) and gets MaxRetries; a POST mutates the replica (records a
// verdict, swaps a model, starts a retrain) and gets exactly one
// attempt — the caller re-issues on a shed, and the verdict store's
// fingerprint dedup makes that safe for /feedback. /score is the one
// idempotent POST: scoring is stateless. Only /score speaks the binary
// protocol. A method the route does not take is the router's own 405,
// never forwarded.
func (r *Router) forwarder(path string, methods []string) http.HandlerFunc {
	notAllowed := strings.Join(methods, " or ") + " required"
	score := path == "/score"
	return func(w http.ResponseWriter, req *http.Request) {
		op := proxyOp{method: req.Method, path: path, binary: score && wire.IsFrame(req.Header)}
		if !slices.Contains(methods, req.Method) {
			wire.WriteError(w, op.binary, http.StatusMethodNotAllowed, notAllowed, 0)
			return
		}
		if score || req.Method == http.MethodGet {
			op.maxRetries = r.cfg.MaxRetries
		}
		r.proxy(w, req, op)
	}
}

// proxy buffers the request once and walks the candidate order under
// op's retry policy.
func (r *Router) proxy(w http.ResponseWriter, req *http.Request, op proxyOp) {
	start := time.Now()
	r.metrics.requests.Add(1)
	r.budget.observeRequest()

	body, status, msg := r.readBody(req, op.binary)
	if status != 0 {
		r.metrics.errs.Add(1)
		if status == http.StatusRequestEntityTooLarge {
			r.metrics.tooLarge.Add(1)
		}
		wire.WriteError(w, op.binary, status, msg, 0)
		return
	}

	order, fromPool := r.pickOrder(req)
	if fromPool != nil {
		defer r.candPool.Put(fromPool)
	}

	walk := candidateWalk{order: order}
	for tries := 0; tries <= op.maxRetries; tries++ {
		if tries > 0 {
			if req.Context().Err() != nil {
				break // the client left: no retry is owed to it
			}
			if !r.budget.allow() {
				r.metrics.budgetExhausted.Add(1)
				break
			}
			r.metrics.retries.Add(1)
			if sleepCtx(req.Context(), r.backoff(tries)) != nil {
				break // client gone mid-backoff
			}
		}
		b := r.nextCandidate(&walk)
		if b == nil {
			break // no selectable candidate remains
		}
		a := r.try(req, b, body, op)
		if a.succeeded() {
			r.metrics.ok.Add(1)
			r.metrics.observeLatency(time.Since(start))
			r.writeProxied(w, a)
			return
		}
		a.discard()
	}

	r.metrics.errs.Add(1)
	if req.Context().Err() != nil {
		return // nobody is left to answer, and a client that left is no shed
	}
	// Every other path here is a shed: no candidate was selectable, the
	// retry budget ran dry, or every attempt failed. 503 + Retry-After is
	// the router's only self-authored failure.
	r.metrics.sheds.Add(1)
	wire.WriteError(w, op.binary, http.StatusServiceUnavailable, "no healthy backend available, retry later", r.cfg.RetryAfter)
}

// readBody buffers the request once so it can be replayed on retries.
// Binary frames are size-checked from their 16-byte header before the
// payload is read (wire's opaque pass-through contract); JSON bodies
// are capped by MaxBodyBytes. A non-zero status reports the failure.
func (r *Router) readBody(req *http.Request, binary bool) (body []byte, status int, msg string) {
	if !binary {
		lim := io.LimitReader(req.Body, r.cfg.MaxBodyBytes+1)
		b, err := io.ReadAll(lim)
		if err != nil {
			return nil, http.StatusBadRequest, "bad request body: " + err.Error()
		}
		if int64(len(b)) > r.cfg.MaxBodyBytes {
			return nil, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds the %d-byte limit", r.cfg.MaxBodyBytes)
		}
		return b, 0, ""
	}
	var hdr [wire.RequestHeaderSize]byte
	if _, err := io.ReadFull(req.Body, hdr[:]); err != nil {
		return nil, http.StatusBadRequest, "truncated request header: " + err.Error()
	}
	size, err := wire.ParseRequestFrameSize(hdr[:])
	if err != nil {
		return nil, http.StatusBadRequest, err.Error()
	}
	if size > r.cfg.MaxBodyBytes {
		return nil, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("frame of %d bytes exceeds the %d-byte request limit", size, r.cfg.MaxBodyBytes)
	}
	b := make([]byte, size)
	copy(b, hdr[:])
	if _, err := io.ReadFull(req.Body, b[wire.RequestHeaderSize:]); err != nil {
		return nil, http.StatusBadRequest, "truncated feature block: " + err.Error()
	}
	var probe [1]byte
	if n, _ := req.Body.Read(probe[:]); n > 0 {
		return nil, http.StatusBadRequest, "trailing bytes past the announced frame"
	}
	return b, 0, ""
}

// pickOrder returns the candidate order for this request: the tenant's
// ring walk, or a rotated round-robin order for tenantless requests.
// fromPool (when non-nil) must be returned to candPool by the caller.
func (r *Router) pickOrder(req *http.Request) (order []int, fromPool *[]int) {
	n := len(r.backends)
	bufp := r.candPool.Get().(*[]int)
	buf := (*bufp)[:0]
	if tenant := req.Header.Get(wire.HeaderTenant); tenant != "" {
		r.metrics.tenantRouted.Add(1)
		buf = r.ring.candidates(tenant, buf)
	} else {
		start := int(r.rr.Add(1)-1) % n
		for i := 0; i < n; i++ {
			buf = append(buf, (start+i)%n)
		}
	}
	*bufp = buf
	return buf, bufp
}

// candidateWalk is one request's pass over its candidate order. The
// cursor survives retries so a request never revisits a backend that
// already failed it; spill holds candidates passed over by the
// bounded-load rule, revisited before the router gives up.
type candidateWalk struct {
	order  []int
	cursor int
	spill  []int
}

// nextCandidate advances the walk to the next backend that may take a
// request now: selectable per the health state machine and under its
// bounded-load share. A backend over its load bound is spilled, not
// dropped — overflow is a placement preference, and an
// overloaded-but-healthy replica always beats a shed once every
// lighter candidate is spent.
func (r *Router) nextCandidate(w *candidateWalk) *Backend {
	for w.cursor < len(w.order) {
		cand := r.backends[w.order[w.cursor]]
		w.cursor++
		if !cand.State().selectable() {
			continue
		}
		if r.overloaded(cand) {
			r.metrics.overflows.Add(1)
			w.spill = append(w.spill, cand.Index)
			continue
		}
		return cand
	}
	for len(w.spill) > 0 {
		cand := r.backends[w.spill[0]]
		w.spill = w.spill[1:]
		if cand.State().selectable() {
			return cand
		}
	}
	return nil
}

// overloaded applies the bounded-load rule: a backend may hold at most
// ceil(LoadFactor * (total in-flight + 1) / selectable backends)
// requests; beyond that the tenant overflows to its next ring
// position.
func (r *Router) overloaded(b *Backend) bool {
	var total int64
	healthy := 0
	for _, ob := range r.backends {
		total += ob.inflight.Load()
		if ob.State().selectable() {
			healthy++
		}
	}
	if healthy == 0 {
		return false
	}
	capacity := int64(math.Ceil(r.cfg.LoadFactor * float64(total+1) / float64(healthy)))
	return b.inflight.Load() >= capacity
}

// try forwards one copy of the request to b under the per-try timeout
// and feeds the outcome to b's health state machine.
func (r *Router) try(req *http.Request, b *Backend, body []byte, op proxyOp) attempt {
	tryCtx, cancel := context.WithTimeout(req.Context(), r.cfg.TryTimeout)
	resp, err := r.forward(tryCtx, b, req, body, op)
	// A forward whose client left says nothing about the backend: no
	// verdict, no failure count. The try timeout is a fault.
	if err == nil || tryCtx.Err() != context.Canceled {
		fault := err != nil || resp.StatusCode >= 500
		b.observeForward(fault, r.cfg.ForwardFailThreshold, r.cfg.Logf)
		if fault || resp.StatusCode == http.StatusTooManyRequests {
			b.failures.Add(1)
		}
	}
	return attempt{resp: resp, err: err, cancel: cancel}
}

// forward performs one HTTP exchange with b, replaying the buffered
// body (empty for GET operations).
func (r *Router) forward(ctx context.Context, b *Backend, orig *http.Request, body []byte, op proxyOp) (*http.Response, error) {
	u := *b.url
	u.Path = strings.TrimSuffix(u.Path, "/") + op.path
	u.RawQuery = orig.URL.RawQuery
	req, err := http.NewRequestWithContext(ctx, op.method, u.String(), bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	copyHeaders(req.Header, orig.Header)
	req.ContentLength = int64(len(body))
	b.requests.Add(1)
	b.inflight.Add(1)
	resp, err := r.transport.roundTrip(req, b.Index)
	b.inflight.Add(-1)
	return resp, err
}

// writeProxied copies the successful response to the client
// byte-for-byte, flushing per chunk so streamed binary responses keep
// streaming through the router.
func (r *Router) writeProxied(w http.ResponseWriter, a attempt) {
	defer a.cancel()
	defer a.resp.Body.Close()
	copyHeaders(w.Header(), a.resp.Header)
	w.WriteHeader(a.resp.StatusCode)
	flusher, _ := w.(http.Flusher)
	bufp := r.copyPool.Get().(*[]byte)
	defer r.copyPool.Put(bufp)
	buf := *bufp
	for {
		n, err := a.resp.Body.Read(buf)
		if n > 0 {
			if _, werr := w.Write(buf[:n]); werr != nil {
				return
			}
			if flusher != nil {
				flusher.Flush()
			}
		}
		if err != nil {
			return
		}
	}
}
