package fleet

import (
	"context"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"targad/internal/faultinject"
)

// retryBudget bounds retry amplification: retries are admitted only
// while the running retry count stays under ratio*requests + burst, so
// a fleet-wide brownout cannot turn every request into MaxRetries
// requests and finish the survivors off. The check is advisory under
// concurrency (two racing retries may both pass), which is exactly as
// tight as a budget needs to be.
type retryBudget struct {
	requests atomic.Int64
	retries  atomic.Int64
	ratio    float64
	burst    int64
}

func (b *retryBudget) observeRequest() { b.requests.Add(1) }

// allow admits one retry inside the budget, consuming it.
func (b *retryBudget) allow() bool {
	if float64(b.retries.Load()) >= b.ratio*float64(b.requests.Load())+float64(b.burst) {
		return false
	}
	b.retries.Add(1)
	return true
}

// backoff returns the full-jitter exponential backoff before retry
// attempt k (1-based): uniform in [0, min(base<<(k-1), max)).
func (r *Router) backoff(k int) time.Duration {
	d := r.cfg.BackoffBase << uint(k-1)
	if d > r.cfg.BackoffMax || d <= 0 {
		d = r.cfg.BackoffMax
	}
	r.jitterMu.Lock()
	f := r.jitter.Float64()
	r.jitterMu.Unlock()
	return time.Duration(f * float64(d))
}

// sleepCtx blocks for d or until ctx is done, whichever comes first.
func sleepCtx(ctx context.Context, d time.Duration) error {
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// errInjected are the chaos transport's synthesized network faults.
var (
	errInjectedDrop = errors.New("fleet: injected connection drop")
)

// chaosTransport wraps the router's real transport with the
// network-layer fault probes. Each forward carries its backend ordinal
// so a chaos test can aim latency, 5xx, or connection drops at exactly
// one replica; idle probes cost one atomic load (faultinject's
// contract), so the wrapper stays in production builds.
type chaosTransport struct {
	base http.RoundTripper
}

func (c *chaosTransport) roundTrip(req *http.Request, backendIdx int) (*http.Response, error) {
	if faultinject.Enabled() {
		if d := faultinject.DelayTarget(faultinject.FleetBackendLatency, backendIdx); d > 0 {
			// The injected stall honors cancellation: a timed-out try,
			// or one whose client left, must be releasable mid-stall,
			// exactly like a real slow backend.
			if err := sleepCtx(req.Context(), d); err != nil {
				return nil, err
			}
		}
		if faultinject.FireTarget(faultinject.FleetBackendDrop, backendIdx) {
			return nil, errInjectedDrop
		}
		if faultinject.FireTarget(faultinject.FleetBackend5xx, backendIdx) {
			return &http.Response{
				StatusCode: http.StatusBadGateway,
				Status:     "502 Bad Gateway (injected)",
				Proto:      "HTTP/1.1",
				ProtoMajor: 1, ProtoMinor: 1,
				Header:  http.Header{"Content-Type": []string{"text/plain"}},
				Body:    io.NopCloser(strings.NewReader("injected backend 5xx\n")),
				Request: req,
			}, nil
		}
	}
	return c.base.RoundTrip(req)
}
