package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"strconv"
	"sync"
	"time"

	"targad/bench/stats"
	"targad/internal/activelearn"
	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/feedback"
	"targad/internal/fleet"
	"targad/internal/mat"
	"targad/internal/monitor"
	"targad/internal/registry"
	"targad/internal/retrain"
	"targad/internal/serve"
	"targad/internal/wire"
)

// traceHeader carries a request's span id from the generator through
// the router (which forwards end-to-end headers) to the replica.
const traceHeader = "X-Bench-Trace"

// span is one timed interval of one request, or of one replayed call
// (id -1). Times are nanoseconds from the tracer's start.
type span struct {
	ID     int    `json:"id"`
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) add(id int, name, parent string, start, end time.Time) {
	s := span{ID: id, Name: name, Parent: parent, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrap records a span around every request h serves that carries a
// trace id.
func (t *tracer) wrap(name, parent string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id, err := strconv.Atoi(r.Header.Get(traceHeader))
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.add(id, name, parent, start, time.Now())
	})
}

// timed runs f inside a span of a replayed call.
func (t *tracer) timed(id int, name, parent string, f func()) time.Duration {
	start := time.Now()
	f()
	end := time.Now()
	t.add(id, name, parent, start, end)
	return end.Sub(start)
}

// byID groups the request spans by id and name.
func (t *tracer) byID() map[int]map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := map[int]map[string]time.Duration{}
	for _, s := range t.spans {
		if s.ID < 0 {
			continue
		}
		m := out[s.ID]
		if m == nil {
			m = map[string]time.Duration{}
			out[s.ID] = m
		}
		m[s.Name] += s.dur()
	}
	return out
}

// write stores every span as one JSON object per line.
func (t *tracer) write(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// serveConfig is the serve.Config targad-serve builds from its default
// flags (precision f64, max-batch 64, max-wait 2 ms, strategy ED,
// monitoring on) for one replica.
func serveConfig(modelPath, instance string) serve.Config {
	return serve.Config{
		ModelPath:     modelPath,
		MaxBatch:      64,
		MaxWait:       2 * time.Millisecond,
		QueueDepth:    256,
		RetryAfter:    time.Second,
		MaxBodyBytes:  32 << 20,
		Strategy:      core.ED,
		Precision:     serve.F64,
		InstanceID:    instance,
		ShadowSample:  0.25,
		AcquireSample: 0.25,
	}
}

// fitConfig is the core.Config `targad -epochs 10` fits with, which is
// also what `targad-serve -retrain-epochs 10` retrains with.
func fitConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.AEEpochs, cfg.ClfEpochs = fitEpochs, fitEpochs
	cfg.AELR, cfg.ClfLR = 1e-3, 1e-3
	return cfg
}

// startInProcess hosts the workload's topology inside the benchmark
// process, built with serve.New, registry.New and fleet.New in the
// configuration the cmd flags of startProcs produce, and wraps every
// public handler in a span recorder.
func startInProcess(w *spec, in *inputs, f *modelFiles, tr *tracer, feedbackDir string) (*topology, error) {
	t := &topology{routed: w.routed}
	var servers []*http.Server
	var closers []func()
	stop := func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		for i := len(servers) - 1; i >= 0; i-- {
			_ = servers[i].Shutdown(ctx) // a server that cannot drain is closed below regardless
		}
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	t.stop = sync.OnceFunc(stop)
	listen := func(h http.Handler) (string, error) {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return "", err
		}
		srv := serve.NewHTTPServer("", h, serve.DefaultHTTPTimeouts())
		servers = append(servers, srv)
		go func() { _ = srv.Serve(ln) }() // returns ErrServerClosed on Shutdown
		return "http://" + ln.Addr().String(), nil
	}
	fail := func(err error) (*topology, error) {
		t.stop()
		return nil, err
	}

	serveParent := "gen"
	if w.routed {
		serveParent = "fleet"
	}
	if w.routed {
		for i := 1; i <= 2; i++ {
			reg, err := registry.New(registry.Config{
				Dir:    f.dir,
				MaxHot: 3,
				Base:   serveConfig("", "r"+strconv.Itoa(i)),
			})
			if err != nil {
				return fail(err)
			}
			closers = append(closers, reg.Close)
			u, err := listen(tr.wrap("serve", serveParent, reg.Handler()))
			if err != nil {
				return fail(err)
			}
			t.replicas = append(t.replicas, u)
		}
		router, err := fleet.New(fleet.Config{Backends: t.replicas, ProbeInterval: 100 * time.Millisecond})
		if err != nil {
			return fail(err)
		}
		closers = append(closers, router.Close)
		if t.entry, err = listen(tr.wrap("fleet", "gen", router.Handler())); err != nil {
			return fail(err)
		}
		return t, nil
	}

	cfg := serveConfig(f.models[0], "r1")
	var store *feedback.Store
	if w.feedback {
		var err error
		if store, err = feedback.Open(feedbackDir, feedback.Config{}); err != nil {
			return fail(err)
		}
		closers = append(closers, func() { _ = store.Close() }) // verdicts of a finished run are not kept
		cfg.Feedback = store
		cfg.Acquire = activelearn.New(activelearn.Config{Budget: 64, Labeled: store.Has})
		cfg.ShadowSample = shadowSample
	}
	s, err := serve.New(cfg)
	if err != nil {
		return fail(err)
	}
	closers = append(closers, s.Close)
	if w.feedback {
		orch, err := retrain.New(s, retrain.Config{
			Store:         store,
			Train:         func() (*dataset.TrainSet, error) { return dataset.LoadTrainCSVs(in.labeled, in.unlabeled, false) },
			Fit:           fitConfig(),
			Seed:          1,
			MaxFlipRate:   1,
			MaxScoreDelta: 1,
			SavePath:      f.models[0],
		})
		if err != nil {
			return fail(err)
		}
		closers = append(closers, orch.Close)
		s.SetRetrain(orch)
	}
	u, err := listen(tr.wrap("serve", serveParent, s.Handler()))
	if err != nil {
		return fail(err)
	}
	t.replicas = []string{u}
	t.entry = u
	return t, nil
}

// replayer re-runs requests of a traced pass through the layers' public
// functions, one child span per layer under the request's serve span.
type replayer struct {
	tr     *tracer
	w      *spec
	in     *inputs
	l      *load
	models []*core.Model
	accs   []*monitor.Accumulator
}

func newReplayer(tr *tracer, w *spec, in *inputs, l *load, paths []string) (*replayer, error) {
	r := &replayer{tr: tr, w: w, in: in, l: l}
	for _, p := range paths {
		m, err := loadModel(p)
		if err != nil {
			return nil, err
		}
		prof := m.Profile()
		if prof == nil {
			return nil, fmt.Errorf("%s carries no monitoring profile", p)
		}
		acc, err := monitor.NewAccumulator(prof, monitor.Config{Strategy: int(core.ED)})
		if err != nil {
			return nil, err
		}
		r.models = append(r.models, m)
		r.accs = append(r.accs, acc)
	}
	return r, nil
}

func loadModel(path string) (*core.Model, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return core.Load(bufio.NewReader(f))
}

// replayed is one replayed request's per-layer durations.
type replayed struct {
	rows                           int
	decode, infer, observe, encode time.Duration
}

// request replays request id (item of the score pool, served by model)
// the way the replica handled it as a batch of its own: wire decode
// (binary workloads), core.Model.Infer, the monitor's Observe, and wire
// encode of the response.
func (r *replayer) request(id, item, model int) (replayed, error) {
	rows := r.l.score.rows[item]
	rep := replayed{rows: len(rows)}
	var x *mat.Matrix
	var err error
	binary := !r.w.json
	if binary {
		body := r.l.score.bodies[item]
		rep.decode = r.tr.timed(id, "wire.decode", "serve", func() {
			var h wire.Request
			if h, err = wire.ParseRequestHeader(body); err == nil {
				x, err = wire.DecodePayloadF64(h, body[wire.RequestHeaderSize:], nil)
			}
		})
		if err != nil {
			return rep, err
		}
	} else {
		x = mat.New(len(rows), r.in.x.Cols)
		for i, row := range rows {
			copy(x.Row(i), r.in.x.Row(row))
		}
	}
	var res *core.InferResult
	rep.infer = r.tr.timed(id, "core.infer", "serve", func() {
		res, err = r.models[model].Infer(context.Background(), x, core.InferOptions{Strategies: []core.OODStrategy{core.ED}})
	})
	if err != nil {
		return rep, err
	}
	kinds := res.Kinds[core.ED]
	rep.observe = r.tr.timed(id, "monitor.observe", "serve", func() {
		r.accs[model].Observe(x, res.Scores, kinds)
	})
	if binary {
		rep.encode = r.tr.timed(id, "wire.encode", "serve", func() {
			n := len(res.Scores)
			out := wire.AppendResponseHeader(nil, 1, n, 0, wire.RespFlags(kinds != nil, false, n > wire.StreamChunkRows))
			for lo := 0; lo < n; lo += wire.StreamChunkRows {
				hi := min(lo+wire.StreamChunkRows, n)
				var k []dataset.Kind
				if kinds != nil {
					k = kinds[lo:hi]
				}
				out = wire.AppendScoreChunk(out, res.Scores[lo:hi], k, nil)
			}
		})
	}
	return rep, nil
}

// coldLoad replays a registry cold load: serve.New on a manifest model
// plus the Close of its eviction, the median of n.
func (r *replayer) coldLoad(path string, n int) (time.Duration, error) {
	var ds []float64
	for i := 0; i < n; i++ {
		var err error
		d := r.tr.timed(-1, "registry.cold_load", "", func() {
			var s *serve.Server
			if s, err = serve.New(serveConfig(path, "replay")); err == nil {
				s.Close()
			}
		})
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(stats.Median(ds)), nil
}

// fit replays the set-up fit of the workload's first model and splits
// it with the classifier's epoch hook: the time before the first epoch
// ends, less one epoch, is k-means and autoencoder candidate selection.
func (r *replayer) fit(seed int64) (selectTime, epoch time.Duration, err error) {
	train, err := dataset.LoadTrainCSVs(r.in.labeled, r.in.unlabeled, false)
	if err != nil {
		return 0, 0, err
	}
	cfg := fitConfig()
	var hooks []time.Time
	cfg.EpochHook = func(int, *core.Model) { hooks = append(hooks, time.Now()) }
	start := time.Now()
	r.tr.timed(-1, "core.fit", "", func() { err = core.New(cfg, seed).Fit(context.Background(), train) })
	if err != nil {
		return 0, 0, err
	}
	if len(hooks) < 2 {
		return 0, 0, errors.New("fit ran fewer than two classifier epochs")
	}
	var gaps []float64
	for i := 1; i < len(hooks); i++ {
		gaps = append(gaps, float64(hooks[i].Sub(hooks[i-1])))
	}
	epoch = time.Duration(stats.Median(gaps))
	return hooks[0].Sub(start) - epoch, epoch, nil
}

// appendVerdicts replays the verdicts a traced pass posted into a fresh
// store configured as targad-serve configures its own, timing each
// Append.
func (r *replayer) appendVerdicts(dir string, items []int) (time.Duration, error) {
	store, err := feedback.Open(dir, feedback.Config{})
	if err != nil {
		return 0, err
	}
	defer store.Close()
	var ds []float64
	for _, item := range items {
		var err error
		d := r.tr.timed(-1, "feedback.append", "", func() { _, err = store.Append(r.l.records[item]) })
		if err != nil {
			return 0, err
		}
		ds = append(ds, float64(d))
	}
	return time.Duration(stats.Median(ds)), nil
}

// retrainFit replays one retrain cycle's fit: core.MergeFeedback of the
// base training set with the verdicts, then a Fit warm-started from the
// served model, as internal/retrain runs it.
func (r *replayer) retrainFit(items []int) (time.Duration, error) {
	base, err := dataset.LoadTrainCSVs(r.in.labeled, r.in.unlabeled, false)
	if err != nil {
		return 0, err
	}
	var recs []feedback.Record
	for _, item := range items {
		recs = append(recs, r.l.records[item])
	}
	cfg := fitConfig()
	cfg.WarmStart = r.models[0].WarmStartState()
	return r.tr.timed(-1, "retrain.fit", "", func() {
		var merged *dataset.TrainSet
		if merged, err = core.MergeFeedback(base, retrain.BuildVerdictBatch(recs, 1)); err == nil {
			err = core.New(cfg, 1).Fit(context.Background(), merged)
		}
	}), err
}
