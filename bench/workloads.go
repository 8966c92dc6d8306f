package main

import (
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"time"

	"targad/internal/dataset"
	"targad/internal/feedback"
	"targad/internal/wire"
)

// spec is one workload: its topology and its load. BENCHMARK.json and
// README.md record why each was chosen.
type spec struct {
	name     string
	profile  string  // synth profile of the workload's data
	models   int     // models fitted, m1..mN, with fit seeds 1..N
	routed   bool    // targad-router in front of two registry replicas
	json     bool    // one JSON row per request instead of binary frames
	closed   bool    // closed loop of bulkSenders senders instead of an open loop
	rate     float64 // scoring requests per second of the open loop
	feedback bool    // verdicts, acquisition and driver-triggered retrains
}

// Load shapes. The workloads stress different layers: online-json the
// HTTP, JSON and batcher path; bulk-binary core.Infer; routed-tenants
// the router hop and the registry's LRU; feedback-retrain a background
// Fit beside live scoring.
const (
	// bulkRows is the rows per bulk-binary frame: far past max-batch, so
	// frames skip the batcher's wait. At 4096 rows the replica's RSS
	// settles, within its first requests, at one of two levels 13 MB
	// apart (59 or 72 MB) and stays there, so rss_mb cannot hold its
	// bound; at 512 rows every run climbs the same way, from 17 to about
	// 21 MB over the window.
	bulkRows     = 512
	bulkPool     = 16 // distinct bulk-binary frames
	bulkSenders  = 2  // bulk-binary's closed-loop connections, at most nproc
	routedPool   = 1024
	maxRouteRows = 32 // routed-tenants frames carry 1..32 rows
	tenantCount  = 12 // tenants, mapped round-robin onto the models
	tenantZipfS  = 1.3
	verdictRate  = 10 // truth-labelled verdicts per second on feedback-retrain
	fitEpochs    = 10
	// shadowSample is feedback-retrain's -shadow-sample: at 50 req/s of
	// 1-row batches, a candidate re-scores its 128 gate rows in about
	// 2.6 s, so a whole retrain cycle fits in a 10 s window.
	shadowSample = 1
)

var specs = []spec{
	{name: "online-json", profile: "UNSW-NB15", models: 1, json: true, rate: 300},
	{name: "bulk-binary", profile: "UNSW-NB15", models: 1, closed: true},
	{name: "routed-tenants", profile: "KDDCUP99", models: 6, routed: true, rate: 300},
	{name: "feedback-retrain", profile: "UNSW-NB15", models: 1, rate: 50, feedback: true},
}

func specByName(name string) (*spec, bool) {
	for i := range specs {
		if specs[i].name == name {
			return &specs[i], true
		}
	}
	return nil, false
}

// modelFiles are the fitted models of one workload and their oracles.
type modelFiles struct {
	dir    string   // holds the models (and manifest.json when routed)
	models []string // m1.bin ... mN.bin
	scores []string // the matching `targad -score` outputs
}

func newModelFiles(dir string, n int) *modelFiles {
	f := &modelFiles{dir: dir}
	for k := 1; k <= n; k++ {
		f.models = append(f.models, filepath.Join(dir, fmt.Sprintf("m%d.bin", k)))
		f.scores = append(f.scores, filepath.Join(dir, fmt.Sprintf("m%d.scores", k)))
	}
	return f
}

// tenantName and tenantModel place tenant i (0-based, in Zipf rank
// order) on model i mod N: every model serves two tenants, and m1, the
// pinned default, serves the most popular one.
func tenantName(i int) string { return fmt.Sprintf("t%02d", i+1) }

func tenantModel(i, models int) int { return i % models }

// writeManifest writes the registry manifest for routed-tenants: every
// model, m1 the default, and the tenant map.
func writeManifest(f *modelFiles) error {
	type spec struct {
		Path string `json:"path"`
	}
	man := struct {
		Default string            `json:"default"`
		Models  map[string]spec   `json:"models"`
		Tenants map[string]string `json:"tenants"`
	}{Default: "m1", Models: map[string]spec{}, Tenants: map[string]string{}}
	for k, path := range f.models {
		man.Models[fmt.Sprintf("m%d", k+1)] = spec{Path: filepath.Base(path)}
	}
	for i := 0; i < tenantCount; i++ {
		man.Tenants[tenantName(i)] = fmt.Sprintf("m%d", tenantModel(i, len(f.models))+1)
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(f.dir, "manifest.json"), raw, 0o644)
}

// pool is a set of pre-encoded request bodies; nothing is encoded inside
// the measured window.
type pool struct {
	bodies [][]byte
	rows   [][]int // test rows each body carries
}

// load is everything a workload sends, built from the seed before the
// first request goes out.
type load struct {
	score pool
	ops   []op // open loop only

	// feedback-retrain's POST /feedback bodies, and the verdict each
	// carries, which the traced run's replays append directly.
	verdicts [][]byte
	records  []feedback.Record
}

// expected returns the score bytes a correct response to item of p
// carries, given the oracle scores of the model that serves it.
func (p *pool) expected(item int, oracle []float64) []byte {
	var b []byte
	for _, r := range p.rows[item] {
		b = scoreBytes(b, oracle[r])
	}
	return b
}

// buildLoad draws the workload's request pool and, for open loops, its
// schedule over the warm-up and the window from seed.
func buildLoad(w *spec, in *inputs, oracles [][]float64, seed int64, warm, window time.Duration) (*load, error) {
	l := &load{}
	n := in.x.Rows
	pick := newRand(seed, 1)
	switch {
	case w.json:
		for i := 0; i < n; i++ {
			body, err := json.Marshal(map[string][][]float64{"instances": {in.x.Row(i)}})
			if err != nil {
				return nil, err
			}
			l.score.add(body, []int{i})
		}
	case w.closed:
		for f := 0; f < bulkPool; f++ {
			rows := make([]int, bulkRows)
			for i := range rows {
				rows[i] = pick.IntN(n)
			}
			if err := l.score.addFrame(in, rows); err != nil {
				return nil, err
			}
		}
	case w.routed:
		for f := 0; f < routedPool; f++ {
			rows := make([]int, 1+pick.IntN(maxRouteRows))
			for i := range rows {
				rows[i] = pick.IntN(n)
			}
			if err := l.score.addFrame(in, rows); err != nil {
				return nil, err
			}
		}
	default: // one row per frame, one frame per test row
		for i := 0; i < n; i++ {
			if err := l.score.addFrame(in, []int{i}); err != nil {
				return nil, err
			}
		}
	}
	if w.closed {
		return l, nil
	}

	sched := newRand(seed, 2)
	zipf := newZipf(tenantCount, tenantZipfS)
	for _, due := range schedule(sched, w.rate, warm, window) {
		o := op{due: due, kind: opScore, item: sched.IntN(len(l.score.bodies))}
		if w.routed {
			o.tenant = zipf.draw(sched)
		}
		l.ops = append(l.ops, o)
	}
	if w.feedback {
		// Verdicts label distinct test rows, in a seeded order, with the
		// truth the generator knows and an analyst would supply.
		order := newRand(seed, 3).Perm(n)
		for _, r := range order {
			rec, body, err := verdict(in, r, oracles[0][r])
			if err != nil {
				return nil, err
			}
			l.verdicts, l.records = append(l.verdicts, body), append(l.records, rec)
		}
		for i, due := range schedule(newRand(seed, 4), verdictRate, warm, window) {
			l.ops = append(l.ops, op{due: due, kind: opFeedback, item: i % n})
		}
		slices.SortStableFunc(l.ops, func(a, b op) int { return int(a.due - b.due) })
	}
	return l, nil
}

// schedule draws Poisson arrivals for the warm-up and, separately, for
// the window, so the window always holds the same number of requests.
func schedule(r *rand.Rand, rate float64, warm, window time.Duration) []time.Duration {
	out := arrivals(r, rate, warm)
	for _, a := range arrivals(r, rate, window) {
		out = append(out, warm+a)
	}
	return out
}

func (p *pool) add(body []byte, rows []int) {
	p.bodies = append(p.bodies, body)
	p.rows = append(p.rows, rows)
}

// addFrame encodes rows of the test split as one f64 request frame that
// leaves the strategy to the server.
func (p *pool) addFrame(in *inputs, rows []int) error {
	x := make([][]float64, len(rows))
	for i, r := range rows {
		x[i] = in.x.Row(r)
	}
	frame, err := wire.AppendRequestF64(nil, x, -1, false)
	if err != nil {
		return err
	}
	p.add(frame, rows)
	return nil
}

// verdict labels test row r with its ground truth and encodes the
// label as a POST /feedback body.
func verdict(in *inputs, r int, score float64) (feedback.Record, []byte, error) {
	rec := feedback.Record{Features: in.x.Row(r), Score: score, Verdict: feedback.VerdictBenign, ModelVersion: 1}
	switch in.kind[r] {
	case dataset.KindTarget:
		rec.Verdict, rec.TargetType = feedback.VerdictTarget, in.typ[r]
	case dataset.KindNonTarget:
		rec.Verdict = feedback.VerdictNonTarget
	}
	body, err := json.Marshal(map[string]any{
		"features": rec.Features, "score": rec.Score, "verdict": rec.Verdict.String(), "target_type": rec.TargetType,
	})
	return rec, body, err
}

// serveArgs are the targad-serve flags of replica i (1-based).
func serveArgs(w *spec, in *inputs, f *modelFiles, i int, feedbackDir string) []string {
	args := []string{"-instance-id", "r" + strconv.Itoa(i)}
	if w.routed {
		return append(args, "-model-dir", f.dir, "-max-hot-models", "3")
	}
	args = append(args, "-model", f.models[0])
	if w.feedback {
		args = append(args,
			"-feedback-dir", feedbackDir, "-acquire-budget", "64",
			"-shadow-sample", strconv.FormatFloat(shadowSample, 'g', -1, 64),
			"-retrain-labeled", in.labeled, "-retrain-unlabeled", in.unlabeled,
			"-retrain-epochs", strconv.Itoa(fitEpochs),
			"-retrain-max-flip", "1", "-retrain-max-delta", "1")
	}
	return args
}
