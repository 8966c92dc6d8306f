package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"targad/bench/stats"
	"targad/internal/wire"
)

// options are the settings shared by every workload of one invocation.
type options struct {
	work    string        // scratch space for data, models and logs
	out     string        // result files and spans.jsonl
	seed    int64         // seed of every input
	warmup  time.Duration // load before the measured window
	window  time.Duration // the measured window
	setups  int           // timed set-ups per run; setup_s is their median
	trace   bool          // add the in-process traced pass
	workers int           // generator senders and connections (nproc)
}

// topology is one running set of servers under test.
type topology struct {
	entry     string   // base URL the generator sends to
	replicas  []string // replica base URLs
	routed    bool
	pids      []int // replica processes; none when hosted in process
	routerPid int
	stop      func() // stops every server and waits until each has ended
}

// startProcs launches the workload's servers as processes of the built
// binaries: one targad-serve, or two registry replicas behind
// targad-router. Replica logs go to dir.
func startProcs(w *spec, in *inputs, f *modelFiles, bins binaries, dir string, rep int) (*topology, error) {
	t := &topology{routed: w.routed}
	var procs []*proc
	t.stop = sync.OnceFunc(func() {
		for i := len(procs) - 1; i >= 0; i-- {
			procs[i].stop()
		}
	})
	start := func(log, bin string, args ...string) (string, *proc, error) {
		addr, err := freeAddr()
		if err != nil {
			return "", nil, err
		}
		p, err := startProc(filepath.Join(dir, log), bin, append([]string{"-addr", addr}, args...)...)
		if err != nil {
			return "", nil, err
		}
		procs = append(procs, p)
		return "http://" + addr, p, nil
	}
	replicas := 1
	if w.routed {
		replicas = 2
	}
	for i := 1; i <= replicas; i++ {
		fbDir := filepath.Join(dir, fmt.Sprintf("verdicts-%d", rep))
		u, p, err := start(fmt.Sprintf("replica%d.log", i), bins.serve, serveArgs(w, in, f, i, fbDir)...)
		if err != nil {
			t.stop()
			return nil, err
		}
		t.replicas = append(t.replicas, u)
		t.pids = append(t.pids, p.pid())
	}
	t.entry = t.replicas[0]
	if w.routed {
		u, p, err := start("router.log", bins.router, "-probe-interval", "100ms", "-backends", strings.Join(t.replicas, ","))
		if err != nil {
			t.stop()
			return nil, err
		}
		t.entry, t.routerPid = u, p.pid()
	}
	return t, nil
}

// fitModels fits every model of the workload with the targad CLI; each
// fit's -score output over the test split is that model's oracle.
func fitModels(ctx context.Context, bins binaries, in *inputs, f *modelFiles) error {
	for k := range f.models {
		cmd := exec.CommandContext(ctx, bins.targad,
			"-labeled", in.labeled, "-unlabeled", in.unlabeled, "-score", in.test,
			"-epochs", fmt.Sprint(fitEpochs), "-normalize=false", "-seed", fmt.Sprint(k+1),
			"-save", f.models[k], "-o", f.scores[k])
		if out, err := cmd.CombinedOutput(); err != nil {
			return fmt.Errorf("fit of %s: %w\n%s", filepath.Base(f.models[k]), err, out)
		}
	}
	return nil
}

// driver sends one workload's requests and checks every answer against
// the oracle.
type driver struct {
	ctx    context.Context
	client *http.Client
	w      *spec
	entry  string
	model  string // the served model file, which promotions overwrite
	l      *load
	want   [][][]byte // [model][item] expected score bytes
	tr     *tracer    // nil in untraced passes
	bufs   []workerBuf

	wrong  atomic.Int64 // answers whose scores differ from the oracle
	logged atomic.Int64
	mu     sync.Mutex
	later  []pending // answers of promoted models, checked after the window
}

// workerBuf is one sender's reusable response and score buffers.
type workerBuf struct {
	resp   bytes.Buffer
	scores []byte
}

// pending is an answer scored by a model promoted during the window; it
// is checked against offline scoring of that model's file afterwards.
type pending struct {
	item    int
	version int64
	scores  []byte
}

func newClient(conns int) *http.Client {
	return &http.Client{
		Timeout: 30 * time.Second,
		Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			DisableCompression:  true,
		},
	}
}

func newDriver(ctx context.Context, client *http.Client, w *spec, t *topology, model string, l *load, oracles [][]float64, workers int, tr *tracer) *driver {
	d := &driver{ctx: ctx, client: client, w: w, entry: t.entry, model: model, l: l, tr: tr, bufs: make([]workerBuf, workers)}
	for _, o := range oracles {
		want := make([][]byte, len(l.score.bodies))
		for item := range want {
			want[item] = l.score.expected(item, o)
		}
		d.want = append(d.want, want)
	}
	return d
}

// fail reports the first few failed operations on stderr.
func (d *driver) fail(format string, args ...any) {
	if d.logged.Add(1) <= 5 {
		fmt.Fprintf(os.Stderr, "bench: %s: "+format+"\n", append([]any{d.w.name}, args...)...)
	}
}

func (d *driver) post(w, id int, path, ctype string, body []byte, tenant string) (int, []byte, error) {
	req, err := http.NewRequestWithContext(d.ctx, http.MethodPost, d.entry+path, bytes.NewReader(body))
	if err != nil {
		return 0, nil, err
	}
	req.Header.Set("Content-Type", ctype)
	if tenant != "" {
		req.Header.Set("X-Targad-Tenant", tenant)
	}
	if d.tr != nil {
		req.Header.Set(traceHeader, fmt.Sprint(id))
	}
	start := time.Now()
	resp, err := d.client.Do(req)
	if err != nil {
		return 0, nil, err
	}
	b := &d.bufs[w].resp
	b.Reset()
	_, err = b.ReadFrom(resp.Body)
	resp.Body.Close()
	if d.tr != nil {
		d.tr.add(id, "gen", "", start, time.Now())
	}
	return resp.StatusCode, b.Bytes(), err
}

// send runs scheduled op i on sender w.
func (d *driver) send(w, i int) (int, bool) {
	o := d.l.ops[i]
	if o.kind == opFeedback {
		code, body, err := d.post(w, i, "/feedback", "application/json", d.l.verdicts[o.item], "")
		if err != nil || code != http.StatusOK || !bytes.Contains(body, []byte(`"recorded":true`)) {
			d.fail("feedback answered %d %q: %v", code, body, err)
			return 0, false
		}
		return 0, true
	}
	return d.score(w, i, o.item, o.tenant)
}

// sendBulk runs the seq-th closed-loop request on sender w.
func (d *driver) sendBulk(w, seq int) (int, bool) {
	return d.score(w, seq, seq%len(d.l.score.bodies), 0)
}

func (d *driver) score(w, id, item, tenant int) (int, bool) {
	rows := len(d.l.score.rows[item])
	ctype, tname, model := wire.ContentType, "", 0
	if d.w.json {
		ctype = "application/json"
	}
	if d.w.routed {
		tname, model = tenantName(tenant), tenantModel(tenant, d.w.models)
	}
	code, body, err := d.post(w, id, "/score", ctype, d.l.score.bodies[item], tname)
	if err != nil || code != http.StatusOK {
		d.fail("score answered %d: %v", code, err)
		return rows, false
	}
	wb := &d.bufs[w]
	version := int64(1)
	if d.w.json {
		wb.scores, err = jsonScores(wb.scores[:0], body)
	} else {
		wb.scores, version, err = frameScores(wb.scores[:0], body)
	}
	switch {
	case err != nil:
		d.wrong.Add(1)
		d.fail("unreadable score answer: %v", err)
		return rows, false
	case version > 1:
		d.mu.Lock()
		d.later = append(d.later, pending{item: item, version: version, scores: bytes.Clone(wb.scores)})
		d.mu.Unlock()
		return rows, true
	case !bytes.Equal(wb.scores, d.want[model][item]):
		d.wrong.Add(1)
		d.fail("scores of request %d differ from the oracle of model m%d", id, model+1)
		return rows, false
	}
	return rows, true
}

// retrainStatus is the part of GET /retrain the driver reads.
type retrainStatus struct {
	Running  bool  `json:"running"`
	Attempts int64 `json:"attempts"`
	Last     *struct {
		Outcome         string `json:"outcome"`
		PromotedVersion int64  `json:"promoted_version"`
		Error           string `json:"error"`
	} `json:"last_result"`
}

func (d *driver) retrainStatus(replica string) (*retrainStatus, error) {
	code, body, err := get(d.ctx, d.client, replica+"/retrain")
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("GET /retrain answered %d", code)
	}
	var st retrainStatus
	return &st, json.Unmarshal(body, &st)
}

// retrains is what the retrain loop saw.
type retrains struct {
	cycles []float64        // seconds from POST /retrain to the poll that saw it promoted
	failed int              // cycles that ended in another outcome, or refused triggers
	models map[int64]string // promoted version -> copy of its model file
}

// retrainLoop sends POST /retrain at the window start and again as soon
// as GET /retrain, polled every 100 ms, reports the last cycle done,
// until the window ends; a cycle still running then is not counted.
// Each promoted model file is copied aside, since the next promotion
// overwrites it.
func (d *driver) retrainLoop(replica string, start time.Time, from, until time.Duration) *retrains {
	r := &retrains{models: map[int64]string{}}
	if sleepCtx(d.ctx, time.Until(start.Add(from))) != nil {
		return r
	}
	var triggered int64
	for time.Since(start) < until {
		t0 := time.Now()
		req, err := http.NewRequestWithContext(d.ctx, http.MethodPost, replica+"/retrain", nil)
		if err != nil {
			return r
		}
		code := 0
		resp, err := d.client.Do(req)
		if err == nil {
			code = resp.StatusCode
			resp.Body.Close()
		}
		if code != http.StatusAccepted {
			r.failed++
			d.fail("POST /retrain answered %d: %v", code, err)
			if sleepCtx(d.ctx, 100*time.Millisecond) != nil {
				return r
			}
			continue
		}
		triggered++
		var st *retrainStatus
		for {
			if sleepCtx(d.ctx, 100*time.Millisecond) != nil || time.Since(start) >= until {
				return r
			}
			if st, err = d.retrainStatus(replica); err == nil && !st.Running && st.Attempts >= triggered && st.Last != nil {
				break
			}
		}
		if st.Last.Outcome != "promoted" {
			r.failed++
			d.fail("retrain cycle ended %s: %s", st.Last.Outcome, st.Last.Error)
			continue
		}
		r.cycles = append(r.cycles, time.Since(t0).Seconds())
		if err := r.keep(d.model, st.Last.PromotedVersion); err != nil {
			r.failed++
			d.fail("keeping promoted model: %v", err)
		}
	}
	return r
}

func (r *retrains) keep(modelPath string, version int64) error {
	raw, err := os.ReadFile(modelPath)
	if err != nil {
		return err
	}
	dst := fmt.Sprintf("%s.v%d", modelPath, version)
	r.models[version] = dst
	return os.WriteFile(dst, raw, 0o644)
}

// checkPromoted checks every answer scored by a promoted model against
// `targad -load` scoring of that model's file. A version promoted after
// the retrain loop's last poll is waited for first; it saves its file
// before GET /retrain reports it. It returns the checks made and failed.
func (d *driver) checkPromoted(r *retrains, replica string, bins binaries, in *inputs) (checked, failed int) {
	oracles := map[int64][]float64{}
	for _, p := range d.later {
		o, ok := oracles[p.version]
		if !ok {
			var err error
			if o, err = d.promotedOracle(r, p.version, replica, bins, in); err != nil {
				d.fail("oracle of promoted model v%d: %v", p.version, err)
			}
			oracles[p.version] = o
		}
		checked++
		if o == nil || !bytes.Equal(p.scores, d.l.score.expected(p.item, o)) {
			failed++
			d.fail("answer of promoted model v%d differs from offline scoring of its file", p.version)
		}
	}
	return checked, failed
}

func (d *driver) promotedOracle(r *retrains, version int64, replica string, bins binaries, in *inputs) ([]float64, error) {
	deadline := time.Now().Add(30 * time.Second)
	for r.models[version] == "" {
		st, err := d.retrainStatus(replica)
		if err == nil && st.Last != nil && st.Last.PromotedVersion == version {
			if err := r.keep(d.model, version); err != nil {
				return nil, err
			}
			break
		}
		if time.Now().After(deadline) {
			return nil, fmt.Errorf("version %d never reported promoted", version)
		}
		if err := sleepCtx(d.ctx, 50*time.Millisecond); err != nil {
			return nil, err
		}
	}
	path := r.models[version]
	cmd := exec.CommandContext(d.ctx, bins.targad, "-load", path, "-score", in.test, "-o", path+".scores")
	if out, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Errorf("targad -load: %w: %s", err, out)
	}
	return readScores(path+".scores", in.x.Rows)
}

// pass is one measured run of the load against a topology.
type pass struct {
	out       []outcome
	warm, end time.Duration // the measured window, as offsets from the load start
	rss       []float64     // summed replica and router RSS, MiB, sampled at 10 Hz in the window
	stealPct  float64
	cpu       float64 // replica CPU seconds over the whole load
	routerCPU float64
	before    []map[string]float64 // /metrics of each replica, then the router
	after     []map[string]float64
	retrains  *retrains
}

// runPass drives the load (warm-up, then the window) against t,
// sampling RSS and steal in the window and reading counters and CPU
// time before and after.
func runPass(ctx context.Context, d *driver, t *topology, o options) (*pass, error) {
	p := &pass{warm: o.warmup, end: o.warmup + o.window}
	urls := append([]string(nil), t.replicas...)
	if t.routed {
		urls = append(urls, t.entry)
	}
	var err error
	if p.before, err = scrapeAll(ctx, d.client, urls); err != nil {
		return nil, err
	}
	cpu0, router0 := cpuOf(t.pids), cpuOf(nonZero(t.routerPid))

	start := time.Now()
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		p.sample(ctx, t, start)
	}()
	if d.w.feedback {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p.retrains = d.retrainLoop(t.replicas[0], start, p.warm, p.end)
		}()
	}
	if d.w.closed {
		p.out = closedLoop(ctx, start, p.end, min(bulkSenders, o.workers), d.sendBulk)
	} else {
		p.out = openLoop(ctx, start, d.l.ops, o.workers, d.send)
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	if p.after, err = scrapeAll(ctx, d.client, urls); err != nil {
		return nil, err
	}
	p.cpu = cpuOf(t.pids) - cpu0
	p.routerCPU = cpuOf(nonZero(t.routerPid)) - router0
	return p, nil
}

// sample reads summed RSS every 100 ms and the machine's steal time
// over the window.
func (p *pass) sample(ctx context.Context, t *topology, start time.Time) {
	if sleepCtx(ctx, time.Until(start.Add(p.warm))) != nil {
		return
	}
	pids := append(append([]int(nil), t.pids...), nonZero(t.routerPid)...)
	c0, err0 := readCPUTimes()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for time.Since(start) < p.end {
		var sum float64
		for _, pid := range pids {
			if v, err := readRSS(pid); err == nil {
				sum += v
			}
		}
		if len(pids) > 0 {
			p.rss = append(p.rss, sum)
		}
		select {
		case <-tick.C:
		case <-ctx.Done():
			return
		}
	}
	if c1, err1 := readCPUTimes(); err0 == nil && err1 == nil && c1.total > c0.total {
		p.stealPct = 100 * (c1.steal - c0.steal) / (c1.total - c0.total)
	}
}

func nonZero(pid int) []int {
	if pid == 0 {
		return nil
	}
	return []int{pid}
}

func cpuOf(pids []int) float64 {
	var sum float64
	for _, pid := range pids {
		if v, err := readCPU(pid); err == nil {
			sum += v
		}
	}
	return sum
}

func scrapeAll(ctx context.Context, c *http.Client, urls []string) ([]map[string]float64, error) {
	out := make([]map[string]float64, len(urls))
	for i, u := range urls {
		m, err := scrape(ctx, c, u)
		if err != nil {
			return nil, err
		}
		out[i] = m
	}
	return out, nil
}

// delta sums the growth of a series over the given scrapes (replicas
// only unless the router is included) during the pass. A name without
// labels also matches every labelled series of that name.
func (p *pass) delta(series string, from, to int) float64 {
	var sum float64
	for i := from; i < to; i++ {
		for k, v := range p.after[i] {
			if k == series || (!strings.Contains(series, "{") && strings.HasPrefix(k, series+"{")) {
				sum += v - p.before[i][k]
			}
		}
	}
	return sum
}

// window returns the outcomes of kind whose due time falls in the
// measured window, and the window's length up to its last completion.
func (p *pass) window(kind opKind) ([]outcome, time.Duration) {
	var in []outcome
	last := p.end
	for _, o := range p.out {
		if o.kind == kind && o.due >= p.warm && o.due < p.end && o.done > 0 {
			in = append(in, o)
			last = max(last, o.done)
		}
	}
	return in, last - p.warm
}

// latencies returns the latencies in ms of the successful outcomes.
func latencies(out []outcome) []float64 {
	var ms []float64
	for _, o := range out {
		if o.ok {
			ms = append(ms, o.latency().Seconds()*1e3)
		}
	}
	return stats.Sorted(ms)
}

// failures counts failed outcomes; attempted counts sent ones.
func failures(out []outcome) (attempted, failed int) {
	for _, o := range out {
		if o.done == 0 {
			continue
		}
		attempted++
		if !o.ok {
			failed++
		}
	}
	return attempted, failed
}
