package serve

import (
	"sync/atomic"
	"time"

	"targad/internal/obs"
)

// latencyBuckets are the fixed upper bounds (seconds) of the request
// latency histogram, chosen to straddle both sub-millisecond one-pass
// requests and bulk frames of many passes.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// metrics is the server's observability state: lock-free counters
// bumped on the hot path and rendered on demand as Prometheus text
// exposition format by the /metrics handler.
type metrics struct {
	requests     atomic.Int64 // scoring requests accepted (any outcome)
	requestOK    atomic.Int64 // scoring requests answered 200
	requestErrs  atomic.Int64 // scoring requests answered 4xx/5xx (shed excluded)
	shed         atomic.Int64 // scoring requests shed with 429 (QueueDepth already scoring)
	canceled     atomic.Int64 // requests dropped because the client is gone
	tooLarge     atomic.Int64 // scoring requests rejected 413 (body over MaxBodyBytes)
	binaryReqs   atomic.Int64 // scoring requests carried as binary wire frames
	rows         atomic.Int64 // instance rows scored
	batches      atomic.Int64 // inference passes run
	batchRows    atomic.Int64 // rows across all passes (avg batch = batchRows/batches)
	reloads      atomic.Int64 // successful model reloads
	reloadErrs   atomic.Int64 // failed model reloads
	inFlight     atomic.Int64 // scoring requests currently being handled
	latencySumNs atomic.Int64 // total request latency
	latencyCount atomic.Int64
	latencyBkt   [13]atomic.Int64 // one per bucket bound, last is +Inf
}

// observeLatency records one request's wall time into the histogram.
func (m *metrics) observeLatency(d time.Duration) {
	m.latencySumNs.Add(int64(d))
	m.latencyCount.Add(1)
	s := d.Seconds()
	for i, ub := range latencyBuckets {
		if s <= ub {
			m.latencyBkt[i].Add(1)
			return
		}
	}
	m.latencyBkt[len(latencyBuckets)].Add(1)
}

// WriteMetrics writes the server's series into w: serving counters,
// the latency histogram, drift window, shadow evaluation and feedback
// loop. targad_build_info is process-level and left to the caller. The
// model registry calls this once per hot model through
// w.With("model", name), so both modes expose the same families.
func (s *Server) WriteMetrics(w *obs.Writer) {
	m := &s.metrics
	w.Counter("targad_serve_requests_total", "Scoring requests accepted for processing.", m.requests.Load())
	w.Counter("targad_serve_requests_ok_total", "Scoring requests answered successfully.", m.requestOK.Load())
	w.Counter("targad_serve_request_errors_total", "Scoring requests that failed (shed excluded).", m.requestErrs.Load())
	w.Counter("targad_serve_shed_total", "Scoring requests shed with 429 because QueueDepth requests were already scoring.", m.shed.Load())
	w.Counter("targad_serve_canceled_total", "Scoring requests stopped at their next inference pass because the client disconnected.", m.canceled.Load())
	w.Counter("targad_serve_request_too_large_total", "Scoring requests rejected with 413 for exceeding the body limit.", m.tooLarge.Load())
	w.Counter("targad_serve_binary_requests_total", "Scoring requests carried as binary wire frames.", m.binaryReqs.Load())
	w.Counter("targad_serve_rows_total", "Instance rows scored.", m.rows.Load())
	w.Counter("targad_serve_batches_total", "Inference passes run, each of at most MaxBatch rows of one request.", m.batches.Load())
	w.Counter("targad_serve_batch_rows_total", "Rows across all inference passes.", m.batchRows.Load())
	w.Counter("targad_serve_reloads_total", "Successful model hot-reloads.", m.reloads.Load())
	w.Counter("targad_serve_reload_errors_total", "Failed model hot-reload attempts.", m.reloadErrs.Load())
	w.Gauge("targad_serve_in_flight", "Scoring requests currently in the handler.", float64(m.inFlight.Load()))
	w.Gauge("targad_serve_queue_depth", "Scoring requests holding an admission slot (scoring now).", float64(len(s.slots)))
	w.Gauge("targad_serve_queue_capacity", "Admission slots (QueueDepth): requests that may score at once.", float64(cap(s.slots)))
	w.Gauge("targad_serve_model_version", "Generation counter of the served model (bumped per reload).", float64(s.ModelVersion()))
	w.Gauge("targad_serve_ready", "1 when a model is loaded and the server accepts requests.", obs.Bool(s.Ready()))

	counts := make([]int64, len(m.latencyBkt))
	for i := range counts {
		counts[i] = m.latencyBkt[i].Load()
	}
	w.Histogram("targad_serve_request_duration_seconds", "Request wall time from decode to response.",
		latencyBuckets, counts, float64(m.latencySumNs.Load())/1e9, m.latencyCount.Load())

	s.writeMonitorMetrics(w)
	s.writeFeedbackMetrics(w)
}
