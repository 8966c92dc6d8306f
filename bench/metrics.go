package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// def names a metric with its unit and which direction is better.
type def struct{ name, unit, better string }

// endToEnd are the metrics a user of the system sees, measured with
// tracing off, that BENCHMARK.json bounds: set-up time, which it must
// carry, and memory, the one other metric that holds a 10% bound from
// run to run on a shared host. Every workload reports both.
var endToEnd = []def{
	{"setup_s", "s", "lower"},
	{"rss_mb", "MB", "lower"},
}

// unbounded are end-to-end metrics that BENCHMARK.json cannot bound:
// latency and bulk throughput spread wider than 10% between runs on a
// shared host, and the others exist on one workload only or read 0.
// They are printed and written to the result file, which bench/compare
// judges, but stay out of the result line.
var unbounded = []def{
	{"latency_p50_ms", "ms", "lower"},
	{"latency_p99_ms", "ms", "lower"},
	{"rows_per_s", "rows/s", "higher"},
	{"retrain_s", "s", "lower"},
	{"feedback_ack_p50_ms", "ms", "lower"},
	{"error_share", "fraction", "lower"},
}

// perLayer are the metrics of single layers a traced run reports. A
// layer that is not on a workload's path reads 0 there.
var perLayer = []def{
	{"gen.late_ms_p99", "ms", "lower"},
	{"host.ref_mflops", "MFLOP/s", "higher"},
	{"host.steal_pct", "%", "lower"},
	{"http.transport_ms_p50", "ms", "lower"},
	{"fleet.hop_ms_p50", "ms", "lower"},
	{"fleet.cpu_us_per_req", "us", "lower"},
	{"fleet.retries", "count", "lower"},
	{"registry.cold_loads", "1/s", "lower"},
	{"registry.hit_share", "fraction", "higher"},
	{"registry.cold_load_ms", "ms", "lower"},
	{"serve.handler_ms_p50", "ms", "lower"},
	{"serve.residual_ms_p50", "ms", "lower"},
	{"serve.batch_rows_mean", "rows", "higher"},
	{"serve.shed", "count", "lower"},
	{"serve.cpu_us_per_row", "us", "lower"},
	{"wire.decode_us_per_row", "us", "lower"},
	{"wire.encode_us_per_row", "us", "lower"},
	{"core.infer_us_per_row", "us", "lower"},
	{"core.fit_select_s", "s", "lower"},
	{"core.fit_epoch_ms", "ms", "lower"},
	{"monitor.observe_us_per_row", "us", "lower"},
	{"feedback.append_ms_p50", "ms", "lower"},
	{"retrain.fit_s", "s", "lower"},
	{"retrain.shadow_s", "s", "lower"},
	{"retrain.cycles", "count", "higher"},
	{"activelearn.offered", "fraction", "higher"},
	{"trace.overhead_pct", "%", "lower"},
}

// metric is one measured value as the result file stores it.
type metric struct {
	Value  float64 `json:"value"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
}

// result is one workload run, as written to the result file that
// bench/compare reads.
type result struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Seconds   float64           `json:"seconds"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"latency_samples"`
	Metrics   map[string]metric `json:"metrics"`
}

var defs = func() map[string]def {
	m := map[string]def{}
	for _, list := range [][]def{endToEnd, unbounded, perLayer} {
		for _, d := range list {
			m[d.name] = d
		}
	}
	return m
}()

// set records a metric by its definition's name. Values that are not
// finite (a median of nothing) are recorded as 0 with a warning, since
// JSON cannot carry them.
func (r *result) set(name string, v float64) {
	d, ok := defs[name]
	if !ok {
		panic("bench: undefined metric " + name)
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		fmt.Fprintf(os.Stderr, "bench: %s %s has no value; recording 0\n", r.Workload, name)
		v = 0
	}
	r.Metrics[name] = metric{Value: v, Unit: d.unit, Better: d.better}
}

// print writes one "<workload> <metric> <value> <unit>" line per metric.
func (r *result) print() {
	names := make([]string, 0, len(r.Metrics))
	for n := range r.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := r.Metrics[n]
		fmt.Printf("%s %s %.6g %s\n", r.Workload, n, m.Value, m.Unit)
	}
}

// save writes the result file into dir.
func (r *result) save(dir string) error {
	name := fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed)
	if r.Trace {
		name = fmt.Sprintf("%s-seed%d-trace.json", r.Workload, r.Seed)
	}
	raw, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, name), append(raw, '\n'), 0o644)
}

// line is the last line the benchmark prints: the end-to-end metrics of
// an untraced run, or the per-layer metrics of a traced one. With more
// than one workload the names are prefixed with "<workload>/".
type line struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]lineMetric `json:"metrics"`
}

type lineMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func resultLine(results []*result, trace bool) line {
	l := line{Correct: true, Metrics: map[string]lineMetric{}}
	list := endToEnd
	if trace {
		list = perLayer
	}
	for _, r := range results {
		l.Correct = l.Correct && r.Correct
		l.Attempted += r.Attempted
		l.Failed += r.Failed
		for _, d := range list {
			name := d.name
			if len(results) > 1 {
				name = r.Workload + "/" + name
			}
			l.Metrics[name] = lineMetric{Value: r.Metrics[d.name].Value, Unit: d.unit}
		}
	}
	return l
}
