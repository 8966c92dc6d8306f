// Package fleet is the resilience layer in front of a targad-serve
// fleet: cmd/targad-router forwards the replicas' scoring, feedback and
// model-admin routes (seven method/path pairs) across N replicas so
// they stay available when individual serving processes stall, crash,
// or degrade (DESIGN.md §13).
//
//   - Placement: a consistent-hash ring keyed on the X-Targad-Tenant
//     header pins each tenant to a home replica (warm drift windows,
//     hot models stay loaded); requests without a tenant round-robin.
//     Bounded load overflows a saturated home to the next ring position
//     instead of queueing behind it.
//   - Health: one per-backend state machine (up → degraded → down →
//     recovering) with two inputs. A prober walks every replica's
//     /readyz, keyed to the replica's instance identity, so a restarted
//     process re-proves itself before it is trusted; forward faults
//     take a persistently failing replica down between probes. Only
//     probes bring a downed backend back, so with the prober off it
//     returns only through ProbeAll.
//   - Resilience: per-try timeouts and budgeted retries with
//     exponential backoff and full jitter, for idempotent operations
//     only (POST /score — scoring is a pure function of the model and
//     the rows — and the GETs). Each try runs on the request's own
//     handler goroutine. The router answers 503 + Retry-After only when
//     no candidate remains.
//   - Transparency: JSON and binary (application/x-targad-frame) bodies
//     are buffered once, forwarded opaquely, and replayed byte-for-byte
//     on retry, so scores through the router are bitwise-identical to a
//     direct backend response.
//
// The chaos suite (chaos_test.go) proves the layer: faultinject's
// targeted network probes kill, stall, and flap replicas mid-load and
// the tests assert zero client-visible failures while at least one
// replica stays healthy.
package fleet

import (
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"targad/internal/faultinject"
	"targad/internal/rng"
	"targad/internal/wire"
)

// Config tunes the router. The zero value of every field has a usable
// default applied by New; only Backends is required.
type Config struct {
	// Backends lists the targad-serve base URLs ("http://host:port").
	// The set is fixed for the router's lifetime; at most 64.
	Backends []string

	// VNodes is the virtual-node count per backend on the ring
	// (default 128).
	VNodes int
	// LoadFactor is the bounded-load multiple: a backend already
	// carrying more than LoadFactor times its fair share of in-flight
	// requests overflows to the next ring position (default 1.25).
	LoadFactor float64

	// ProbeInterval is the health-prober period (default 1s; < 0
	// disables the background prober — tests drive ProbeAll directly,
	// and a backend downed by forward faults returns only through it).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one /readyz probe (default 500ms).
	ProbeTimeout time.Duration
	// FailThreshold is the consecutive probe failures that take a
	// degraded backend down (default 3).
	FailThreshold int
	// RecoverThreshold is the consecutive probe successes that take a
	// recovering backend up (default 2).
	RecoverThreshold int

	// TryTimeout bounds one forwarded attempt (default 2s).
	TryTimeout time.Duration
	// MaxRetries is the most re-forwards after the first attempt
	// (default 2). Only idempotent operations are retried: POST /score
	// (scoring is a pure function of the model and the rows) and every
	// GET; the other POSTs run exactly one attempt.
	MaxRetries int
	// RetryBudget caps fleet-wide retry amplification: retries are
	// admitted while total retries < RetryBudget*requests + 10
	// (default 0.2).
	RetryBudget float64
	// BackoffBase/BackoffMax bound the full-jitter exponential backoff
	// between attempts (defaults 5ms / 100ms).
	BackoffBase time.Duration
	BackoffMax  time.Duration

	// ForwardFailThreshold is the consecutive forward faults (transport
	// error, try timeout or 5xx) that take a backend down until probes
	// re-admit it (default 5). A recovering backend goes down on its
	// first fault.
	ForwardFailThreshold int

	// MaxBodyBytes bounds a proxied request body (default 32 MiB,
	// matching targad-serve).
	MaxBodyBytes int64
	// RetryAfter is advertised on 503 responses when no candidate
	// remains (default 1s).
	RetryAfter time.Duration

	// Seed seeds the backoff-jitter RNG (default 1).
	Seed int64

	// Transport overrides the backend transport (tests; nil uses a
	// pooled http.Transport).
	Transport http.RoundTripper

	// Logf, when set, receives one line per backend state transition,
	// naming its cause (probes or forwards). Nil discards.
	Logf func(format string, v ...any)
}

// Router forwards the replicas' routes (see routes) across the fleet.
// Create with New, mount Handler on an http.Server
// (wire.NewHTTPServer), Close on shutdown.
type Router struct {
	cfg      Config
	backends []*Backend
	ring     *ring
	rr       atomic.Uint64 // round-robin cursor for tenantless requests

	transport *chaosTransport
	probe     *http.Client

	budget   retryBudget
	jitterMu sync.Mutex
	jitter   *rng.RNG

	metrics routerMetrics
	mux     *http.ServeMux
	done    chan struct{}
	wg      sync.WaitGroup
	closing sync.Once

	candPool sync.Pool // []int candidate scratch
	copyPool sync.Pool // [32<<10]byte response copy buffers
}

// New builds a Router over cfg.Backends and starts the health prober.
func New(cfg Config) (*Router, error) {
	if len(cfg.Backends) == 0 {
		return nil, errors.New("fleet: at least one backend is required")
	}
	if len(cfg.Backends) > 64 {
		return nil, fmt.Errorf("fleet: %d backends exceeds the 64-backend limit", len(cfg.Backends))
	}
	if cfg.VNodes <= 0 {
		cfg.VNodes = 128
	}
	if cfg.LoadFactor <= 1 {
		cfg.LoadFactor = 1.25
	}
	if cfg.ProbeInterval == 0 {
		cfg.ProbeInterval = time.Second
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = 3
	}
	if cfg.RecoverThreshold <= 0 {
		cfg.RecoverThreshold = 2
	}
	if cfg.TryTimeout <= 0 {
		cfg.TryTimeout = 2 * time.Second
	}
	if cfg.MaxRetries < 0 {
		cfg.MaxRetries = 0
	} else if cfg.MaxRetries == 0 {
		cfg.MaxRetries = 2
	}
	if cfg.RetryBudget <= 0 || cfg.RetryBudget > 1 {
		cfg.RetryBudget = 0.2
	}
	if cfg.BackoffBase <= 0 {
		cfg.BackoffBase = 5 * time.Millisecond
	}
	if cfg.BackoffMax <= 0 {
		cfg.BackoffMax = 100 * time.Millisecond
	}
	if cfg.ForwardFailThreshold <= 0 {
		cfg.ForwardFailThreshold = 5
	}
	if cfg.MaxBodyBytes <= 0 {
		cfg.MaxBodyBytes = 32 << 20
	}
	if cfg.RetryAfter <= 0 {
		cfg.RetryAfter = time.Second
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}

	base := cfg.Transport
	if base == nil {
		base = &http.Transport{
			MaxIdleConns:        256,
			MaxIdleConnsPerHost: 64,
			IdleConnTimeout:     90 * time.Second,
		}
	}

	r := &Router{
		cfg:       cfg,
		transport: &chaosTransport{base: base},
		jitter:    rng.New(cfg.Seed),
		done:      make(chan struct{}),
	}
	r.budget.ratio = cfg.RetryBudget
	r.budget.burst = 10
	r.probe = &http.Client{Transport: base, Timeout: cfg.ProbeTimeout}

	names := make([]string, len(cfg.Backends))
	for i, raw := range cfg.Backends {
		u, err := url.Parse(strings.TrimSuffix(raw, "/"))
		if err != nil {
			return nil, fmt.Errorf("fleet: backend %d: %w", i, err)
		}
		if u.Scheme == "" || u.Host == "" {
			return nil, fmt.Errorf("fleet: backend %d: %q is not an absolute URL", i, raw)
		}
		b := &Backend{Index: i, Name: u.Host, url: u}
		r.backends = append(r.backends, b)
		names[i] = u.Host
	}
	r.ring = buildRing(names, cfg.VNodes)
	r.candPool.New = func() any { s := make([]int, 0, len(r.backends)); return &s }
	r.copyPool.New = func() any { b := make([]byte, 32<<10); return &b }

	r.mux = http.NewServeMux()
	for _, rt := range routes {
		r.mux.HandleFunc(rt.path, r.forwarder(rt.path, rt.methods))
	}
	r.mux.HandleFunc("/healthz", r.handleHealthz)
	r.mux.HandleFunc("/readyz", r.handleReadyz)
	r.mux.HandleFunc("/metrics", r.handleMetrics)
	r.mux.HandleFunc("/backends", r.handleBackends)

	if cfg.ProbeInterval > 0 {
		r.wg.Add(1)
		go r.probeLoop()
	}
	return r, nil
}

// Handler returns the router's HTTP routes.
func (r *Router) Handler() http.Handler { return r.mux }

// Close stops the prober. In-flight proxied requests are owned by the
// listener (http.Server.Shutdown drains them first).
func (r *Router) Close() {
	r.closing.Do(func() {
		close(r.done)
		r.wg.Wait()
	})
}

// probeLoop walks the fleet every ProbeInterval until Close.
func (r *Router) probeLoop() {
	defer r.wg.Done()
	t := time.NewTicker(r.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.ProbeAll()
		case <-r.done:
			return
		}
	}
}

// ProbeAll probes every backend's /readyz once, concurrently, and
// blocks until the round completes. The background prober calls it on
// each tick; tests call it directly to drive the state machines
// deterministically.
func (r *Router) ProbeAll() {
	var wg sync.WaitGroup
	for _, b := range r.backends {
		wg.Add(1)
		go func(b *Backend) {
			defer wg.Done()
			ok, instance, models := r.probeOne(b)
			b.observeProbe(ok, instance, &r.cfg, r.cfg.Logf)
			if ok {
				b.setModels(models)
			}
		}(b)
	}
	wg.Wait()
}

// probeOne performs one /readyz probe. The targeted flap and drop
// probes fire here too: a killed process fails its health checks, and
// the flap probe flaps the state machine without touching live
// traffic.
func (r *Router) probeOne(b *Backend) (ok bool, instance, models string) {
	if faultinject.Enabled() {
		if faultinject.FireTarget(faultinject.FleetBackendFlap, b.Index) {
			return false, "", ""
		}
		if faultinject.FireTarget(faultinject.FleetBackendDrop, b.Index) {
			return false, "", ""
		}
	}
	req, err := http.NewRequest(http.MethodGet, b.url.String()+"/readyz", nil)
	if err != nil {
		return false, "", ""
	}
	resp, err := r.probe.Do(req)
	if err != nil {
		return false, "", ""
	}
	defer drainClose(resp.Body)
	return resp.StatusCode == http.StatusOK,
		resp.Header.Get(wire.HeaderInstance),
		resp.Header.Get(wire.HeaderModels)
}

// BackendStatus is one backend's externally visible state (GET
// /backends, tests).
type BackendStatus struct {
	Name      string `json:"name"`
	State     string `json:"state"`
	Instance  string `json:"instance,omitempty"`
	Models    string `json:"models,omitempty"`
	Inflight  int64  `json:"inflight"`
	Requests  int64  `json:"requests"`
	Failures  int64  `json:"failures"`
	Restarts  int64  `json:"restarts"`
	ProbeFail int64  `json:"probe_failures"`
}

// Status snapshots every backend.
func (r *Router) Status() []BackendStatus {
	out := make([]BackendStatus, len(r.backends))
	for i, b := range r.backends {
		out[i] = BackendStatus{
			Name:      b.Name,
			State:     b.State().String(),
			Instance:  b.Instance(),
			Models:    b.Models(),
			Inflight:  b.inflight.Load(),
			Requests:  b.requests.Load(),
			Failures:  b.failures.Load(),
			Restarts:  b.restarts.Load(),
			ProbeFail: b.probeFails.Load(),
		}
	}
	return out
}

// TenantBackend returns the index of the tenant's home backend on the
// ring (ignoring health), so tests and operators can ask "where does
// this tenant live?".
func (r *Router) TenantBackend(tenant string) int {
	buf := make([]int, 0, 1)
	buf = r.ring.candidates(tenant, buf[:0])
	return buf[0]
}

func (r *Router) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}

// handleReadyz answers 200 while at least one backend is selectable —
// the router is useful — and 503 otherwise.
func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	select {
	case <-r.done:
		http.Error(w, "shutting down", http.StatusServiceUnavailable)
		return
	default:
	}
	for _, b := range r.backends {
		if b.State().selectable() {
			w.WriteHeader(http.StatusOK)
			_, _ = w.Write([]byte("ready\n"))
			return
		}
	}
	http.Error(w, "no selectable backend", http.StatusServiceUnavailable)
}
