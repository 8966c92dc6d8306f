package fleet

import (
	"encoding/json"
	"net/http"
	"sync/atomic"
	"time"

	"targad/internal/obs"
)

// routerMetrics is the router's observability state: lock-free
// counters bumped on the proxy path and rendered as Prometheus text
// exposition format by /metrics, mirroring internal/serve's idiom.
type routerMetrics struct {
	requests        atomic.Int64 // client requests accepted by /score (any outcome)
	ok              atomic.Int64 // client requests answered with a backend success
	errs            atomic.Int64 // client requests answered with a router-authored error
	tooLarge        atomic.Int64 // requests rejected 413 before any forward
	tenantRouted    atomic.Int64 // requests placed via the tenant ring
	retries         atomic.Int64 // re-forwards after a failed attempt
	budgetExhausted atomic.Int64 // retries refused by the retry budget
	hedges          atomic.Int64 // hedge copies launched
	hedgeWins       atomic.Int64 // requests won by the hedge copy
	hedgeCancels    atomic.Int64 // losing attempts canceled after a winner
	sheds           atomic.Int64 // 503s answered because no candidate remained
	overflows       atomic.Int64 // candidates skipped by the bounded-load rule
	circuitSkips    atomic.Int64 // candidates skipped by an open circuit breaker
	latencySumNs    atomic.Int64 // end-to-end routed latency of successful requests
	latencyCount    atomic.Int64
}

func (m *routerMetrics) observeLatency(d time.Duration) {
	m.latencySumNs.Add(int64(d))
	m.latencyCount.Add(1)
}

func (m *routerMetrics) write(w *obs.Writer) {
	w.Counter("targad_router_requests_total", "Scoring requests accepted by the router.", m.requests.Load())
	w.Counter("targad_router_requests_ok_total", "Scoring requests answered with a backend response.", m.ok.Load())
	w.Counter("targad_router_request_errors_total", "Scoring requests answered with a router-authored error.", m.errs.Load())
	w.Counter("targad_router_request_too_large_total", "Scoring requests rejected with 413 before any forward.", m.tooLarge.Load())
	w.Counter("targad_router_tenant_routed_total", "Scoring requests placed via the tenant consistent-hash ring.", m.tenantRouted.Load())
	w.Counter("targad_router_retries_total", "Forward attempts re-sent after a retryable failure.", m.retries.Load())
	w.Counter("targad_router_retry_budget_exhausted_total", "Retries refused because the fleet-wide retry budget ran dry.", m.budgetExhausted.Load())
	w.Counter("targad_router_hedges_total", "Hedge copies launched for tail-latency requests.", m.hedges.Load())
	w.Counter("targad_router_hedge_wins_total", "Requests whose hedge copy answered first.", m.hedgeWins.Load())
	w.Counter("targad_router_hedge_cancels_total", "Losing attempts canceled after another attempt won.", m.hedgeCancels.Load())
	w.Counter("targad_router_shed_total", "Requests answered 503 because no selectable backend remained.", m.sheds.Load())
	w.Counter("targad_router_overflow_total", "Candidate selections skipped by the bounded-load rule.", m.overflows.Load())
	w.Counter("targad_router_circuit_skips_total", "Candidate selections skipped by an open circuit breaker.", m.circuitSkips.Load())
	w.Summary("targad_router_request_duration_seconds", "End-to-end routed latency of successful requests.",
		float64(m.latencySumNs.Load())/1e9, m.latencyCount.Load())
}

// handleMetrics renders router-level counters plus one labeled series
// per backend: health state, in-flight load, forward and probe
// counters, and the circuit breaker's state and transition counts.
func (r *Router) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	ow := obs.New()
	r.metrics.write(ow)
	for _, b := range r.backends {
		bw := ow.With("backend", b.Name)
		bw.Gauge("targad_router_backend_state", "Backend health state: 0 up, 1 degraded, 2 down, 3 recovering.", float64(b.State()))
		bw.Gauge("targad_router_backend_inflight", "Proxied requests currently outstanding per backend.", float64(b.inflight.Load()))
		bw.Counter("targad_router_backend_requests_total", "Forward attempts sent per backend.", b.requests.Load())
		bw.Counter("targad_router_backend_failures_total", "Forward attempts that failed per backend.", b.failures.Load())
		bw.Counter("targad_router_backend_probes_total", "Health probes sent per backend.", b.probes.Load())
		bw.Counter("targad_router_backend_probe_failures_total", "Health probes that failed per backend.", b.probeFails.Load())
		bw.Counter("targad_router_backend_restarts_total", "Instance-identity changes observed per backend.", b.restarts.Load())
		bw.Counter("targad_router_backend_transitions_total", "Health state transitions per backend.", b.transitions.Load())
		bw.Gauge("targad_router_circuit_state", "Circuit breaker state: 0 closed, 1 open, 2 half-open.", float64(b.cb.snapshotState()))
		bw.Counter("targad_router_circuit_opens_total", "Circuit breaker open transitions per backend.", b.cb.opens.Load())
		bw.Counter("targad_router_circuit_half_opens_total", "Circuit breaker half-open transitions per backend.", b.cb.halfOpens.Load())
		bw.Counter("targad_router_circuit_closes_total", "Circuit breaker close transitions per backend.", b.cb.closes.Load())
	}
	w.Header().Set("Content-Type", obs.ContentType)
	_, _ = ow.WriteTo(w)
}

// handleBackends dumps the fleet's Status as JSON for operators and
// the chaos suite. With ?tenant=, the answer also names the tenant's
// home backend (and the models it advertises), so an operator can ask
// "where does this tenant's traffic land?" without hashing by hand.
func (r *Router) handleBackends(w http.ResponseWriter, req *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	if tenant := req.URL.Query().Get("tenant"); tenant != "" {
		home := r.backends[r.TenantBackend(tenant)]
		_ = enc.Encode(map[string]any{
			"tenant":      tenant,
			"home":        home.Name,
			"home_models": home.Models(),
			"backends":    r.Status(),
		})
		return
	}
	_ = enc.Encode(r.Status())
}
