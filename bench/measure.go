package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"targad/bench/stats"
)

// runWorkload measures one workload: it generates the inputs, times the
// set-up (fit every model, start the servers, wait until ready) setups
// times, drives the load through warm-up and the window with every
// answer checked, and derives the metrics. With o.trace it then hosts
// the same topology in process and replays the traced requests layer by
// layer.
func runWorkload(ctx context.Context, w *spec, o options, bins binaries) (*result, error) {
	dir := filepath.Join(o.work, fmt.Sprintf("%s-seed%d", w.name, o.seed))
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	files := newModelFiles(filepath.Join(dir, "models"), w.models)
	if err := os.MkdirAll(files.dir, 0o755); err != nil {
		return nil, err
	}
	in, err := makeInputs(dir, w.profile, o.seed)
	if err != nil {
		return nil, err
	}
	if w.routed {
		if err := writeManifest(files); err != nil {
			return nil, err
		}
	}
	client := newClient(o.workers)
	defer client.CloseIdleConnections()

	var setups []float64
	var topo *topology
	for i := 0; i < o.setups; i++ {
		if topo != nil {
			topo.stop()
		}
		start := time.Now()
		if err := fitModels(ctx, bins, in, files); err != nil {
			return nil, err
		}
		if topo, err = startProcs(w, in, files, bins, dir, i); err != nil {
			return nil, err
		}
		if err := waitReady(ctx, client, topo, time.Minute); err != nil {
			topo.stop()
			return nil, err
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer topo.stop()

	oracles := make([][]float64, len(files.scores))
	for k, path := range files.scores {
		if oracles[k], err = readScores(path, in.x.Rows); err != nil {
			return nil, err
		}
	}
	// Promotions overwrite the served file; replays and the traced pass
	// start from the fitted model.
	fitted := append([]string(nil), files.models...)
	if w.feedback {
		fitted[0] = files.models[0] + ".fit"
		if err := copyFile(files.models[0], fitted[0]); err != nil {
			return nil, err
		}
	}
	l, err := buildLoad(w, in, oracles, o.seed, o.warmup, o.window)
	if err != nil {
		return nil, err
	}

	res := &result{Workload: w.name, Seed: o.seed, Trace: o.trace, Seconds: o.window.Seconds(), Correct: true, Metrics: map[string]metric{}}
	res.set("host.ref_mflops", refMFLOPS(time.Second))
	d := newDriver(ctx, client, w, topo, files.models[0], l, oracles, o.workers, nil)
	p, err := runPass(ctx, d, topo, o)
	if err != nil {
		return nil, err
	}
	res.account(d, p, bins, in, topo)
	topo.stop()
	res.set("setup_s", stats.Median(setups))
	untracedP50 := res.untracedMetrics(w, p, l)

	if o.trace {
		if w.feedback {
			if err := copyFile(fitted[0], files.models[0]); err != nil {
				return nil, err
			}
		}
		tr := newTracer()
		wr := &workloadRun{w: w, o: o, in: in, files: files, fitted: fitted, l: l, oracles: oracles, client: client, bins: bins, dir: dir}
		err := res.traced(ctx, wr, tr, untracedP50, p)
		if werr := tr.write(filepath.Join(o.out, fmt.Sprintf("%s-seed%d-spans.jsonl", w.name, o.seed))); err == nil {
			err = werr
		}
		if err != nil {
			return nil, err
		}
	}
	res.set("error_share", float64(res.Failed)/float64(max(res.Attempted, 1)))
	return res, nil
}

// account adds a pass's operations, failures and wrong answers to the
// result. Answers of promoted models are checked here, while the
// replica that promoted them still runs.
func (r *result) account(d *driver, p *pass, bins binaries, in *inputs, t *topology) {
	attempted, failed := failures(p.out)
	if p.retrains != nil {
		attempted += len(p.retrains.cycles) + p.retrains.failed
		failed += p.retrains.failed
		checked, wrong := d.checkPromoted(p.retrains, t.replicas[0], bins, in)
		attempted += checked
		failed += wrong
		d.wrong.Add(int64(wrong))
	}
	r.Attempted += attempted
	r.Failed += failed
	r.Correct = r.Correct && d.wrong.Load() == 0
}

// untracedMetrics derives the end-to-end metrics and the counter-based
// per-layer metrics of an untraced pass, and returns its p50 latency.
func (r *result) untracedMetrics(w *spec, p *pass, l *load) float64 {
	scores, elapsed := p.window(opScore)
	lat := latencies(scores)
	r.Samples = len(lat)
	if !stats.TailSupported(len(lat), 0.99) {
		fmt.Fprintf(os.Stderr, "bench: %s: %d latency samples leave fewer than ten beyond p99\n", w.name, len(lat))
	}
	var windowRows, scored float64
	for _, o := range scores {
		if o.ok {
			windowRows += float64(o.rows)
		}
	}
	var late []float64
	for _, o := range p.out {
		if o.kind == opScore && o.ok {
			scored += float64(o.rows)
		}
		if o.due >= p.warm && o.due < p.end {
			late = append(late, o.late().Seconds()*1e3)
		}
	}
	p50 := stats.Percentile(lat, 0.5)
	r.set("latency_p50_ms", p50)
	r.set("latency_p99_ms", stats.Percentile(lat, 0.99))
	r.set("rows_per_s", windowRows/elapsed.Seconds())
	r.set("rss_mb", stats.Median(p.rss))
	r.set("gen.late_ms_p99", stats.Percentile(stats.Sorted(late), 0.99))
	r.set("host.steal_pct", p.stealPct)

	replicas := len(p.before)
	if w.routed {
		replicas-- // the last scrape is the router's
		routerReqs := p.delta("targad_router_requests_total", replicas, replicas+1)
		r.set("fleet.cpu_us_per_req", 1e6*p.routerCPU/max(routerReqs, 1))
		r.set("fleet.retries", p.delta("targad_router_retries_total", replicas, replicas+1))
		loads := p.delta("targad_registry_loads_total", 0, replicas)
		r.set("registry.cold_loads", loads/p.end.Seconds())
		var nonDefault float64
		for _, o := range p.out {
			if o.done > 0 && tenantModel(l.ops[o.id].tenant, w.models) != 0 {
				nonDefault++
			}
		}
		r.set("registry.hit_share", 1-loads/max(nonDefault, 1))
		// The registry renders the counters of hot models only, and a
		// cold load starts them over, so batch sizes come from the pinned
		// default model.
		r.set("serve.batch_rows_mean", p.delta(`targad_serve_rows_total{model="m1"}`, 0, replicas)/
			max(p.delta(`targad_serve_batches_total{model="m1"}`, 0, replicas), 1))
	} else {
		r.set("fleet.cpu_us_per_req", 0)
		r.set("fleet.retries", 0)
		r.set("registry.cold_loads", 0)
		r.set("registry.hit_share", 1)
		r.set("serve.batch_rows_mean", p.delta("targad_serve_batch_rows_total", 0, replicas)/
			max(p.delta("targad_serve_batches_total", 0, replicas), 1))
	}
	r.set("serve.shed", p.delta("targad_serve_shed_total", 0, replicas))
	r.set("serve.cpu_us_per_row", 1e6*p.cpu/max(scored, 1))

	if w.feedback {
		acks, _ := p.window(opFeedback)
		r.set("feedback_ack_p50_ms", stats.Percentile(latencies(acks), 0.5))
		r.set("retrain_s", stats.Median(p.retrains.cycles))
		r.set("retrain.cycles", float64(len(p.retrains.cycles)))
		r.set("activelearn.offered", p.delta("targad_acquire_offered_total", 0, replicas)/max(scored, 1))
	} else {
		r.set("retrain.cycles", 0)
		r.set("activelearn.offered", 0)
	}
	return p50
}

// maxReplays bounds how many traced requests are replayed layer by
// layer, which keeps bulk-binary's replay near a second.
const maxReplays = 256

// workloadRun is what the traced pass shares with the untraced one.
type workloadRun struct {
	w       *spec
	o       options
	in      *inputs
	files   *modelFiles
	fitted  []string // the fitted model files, which promotions do not touch
	l       *load
	oracles [][]float64
	client  *http.Client
	bins    binaries
	dir     string
}

// traced runs the in-process traced pass with the same schedule, then
// the replays, and derives the span-based per-layer metrics.
// untracedP50 and untraced come from the untraced pass of the same run,
// which the tracing overhead and the retrain shadow time are measured
// against.
func (r *result) traced(ctx context.Context, wr *workloadRun, tr *tracer, untracedP50 float64, untraced *pass) error {
	w, in, files, l, dir := wr.w, wr.in, wr.files, wr.l, wr.dir
	topo, err := startInProcess(w, in, files, tr, filepath.Join(dir, "verdicts-traced"))
	if err != nil {
		return err
	}
	defer topo.stop()
	if err := waitReady(ctx, wr.client, topo, time.Minute); err != nil {
		return err
	}
	d := newDriver(ctx, wr.client, w, topo, files.models[0], l, wr.oracles, wr.o.workers, tr)
	p, err := runPass(ctx, d, topo, wr.o)
	if err != nil {
		return err
	}
	r.account(d, p, wr.bins, in, topo)
	topo.stop()

	scores, _ := p.window(opScore)
	r.set("trace.overhead_pct", 100*(stats.Percentile(latencies(scores), 0.5)/untracedP50-1))

	outer := "serve"
	if w.routed {
		outer = "fleet"
	}
	spans := tr.byID()
	var transport, hop, handler []float64
	var picked []outcome
	for _, oc := range scores {
		s := spans[oc.id]
		if !oc.ok || s["gen"] == 0 || s["serve"] == 0 || s[outer] == 0 {
			continue
		}
		transport = append(transport, ms(s["gen"]-s[outer]))
		if w.routed {
			hop = append(hop, ms(s["fleet"]-s["serve"]))
		}
		handler = append(handler, ms(s["serve"]))
		picked = append(picked, oc)
	}
	r.set("http.transport_ms_p50", stats.Median(transport))
	if w.routed {
		r.set("fleet.hop_ms_p50", stats.Median(hop))
	} else {
		r.set("fleet.hop_ms_p50", 0)
	}
	r.set("serve.handler_ms_p50", stats.Median(handler))

	rp, err := newReplayer(tr, w, in, l, wr.fitted)
	if err != nil {
		return err
	}
	var residual, decode, encode, infer, observe []float64
	step := max(1, len(picked)/maxReplays)
	for i := 0; i < len(picked); i += step {
		oc := picked[i]
		item, tenant := oc.id%len(l.score.bodies), 0
		if !w.closed {
			item, tenant = l.ops[oc.id].item, l.ops[oc.id].tenant
		}
		rep, err := rp.request(oc.id, item, tenantModel(tenant, w.models))
		if err != nil {
			return fmt.Errorf("replay of request %d: %w", oc.id, err)
		}
		n := float64(rep.rows)
		residual = append(residual, ms(spans[oc.id]["serve"]-rep.decode-rep.infer-rep.observe-rep.encode))
		decode = append(decode, us(rep.decode)/n)
		encode = append(encode, us(rep.encode)/n)
		infer = append(infer, us(rep.infer)/n)
		observe = append(observe, us(rep.observe)/n)
	}
	r.set("serve.residual_ms_p50", stats.Median(residual))
	r.set("wire.decode_us_per_row", stats.Median(decode))
	r.set("wire.encode_us_per_row", stats.Median(encode))
	r.set("core.infer_us_per_row", stats.Median(infer))
	r.set("monitor.observe_us_per_row", stats.Median(observe))

	coldLoad := time.Duration(0)
	if w.routed {
		if coldLoad, err = rp.coldLoad(wr.fitted[1], 10); err != nil {
			return err
		}
	}
	r.set("registry.cold_load_ms", ms(coldLoad))
	sel, epoch, err := rp.fit(1)
	if err != nil {
		return err
	}
	r.set("core.fit_select_s", sel.Seconds())
	r.set("core.fit_epoch_ms", ms(epoch))

	var appendP50, retrainFit time.Duration
	if w.feedback {
		var items []int
		for i, oc := range p.out {
			if oc.kind == opFeedback && oc.ok {
				items = append(items, l.ops[i].item)
			}
		}
		if appendP50, err = rp.appendVerdicts(filepath.Join(dir, "verdicts-replay"), items); err != nil {
			return err
		}
		if retrainFit, err = rp.retrainFit(items); err != nil {
			return err
		}
		r.set("retrain.shadow_s", stats.Median(untraced.retrains.cycles)-retrainFit.Seconds())
	} else {
		r.set("retrain.shadow_s", 0)
	}
	r.set("feedback.append_ms_p50", ms(appendP50))
	r.set("retrain.fit_s", retrainFit.Seconds())
	return nil
}

func ms(d time.Duration) float64 { return d.Seconds() * 1e3 }
func us(d time.Duration) float64 { return d.Seconds() * 1e6 }

func copyFile(src, dst string) error {
	raw, err := os.ReadFile(src)
	if err != nil {
		return err
	}
	return os.WriteFile(dst, raw, 0o644)
}
