package registry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"targad/internal/core"
	"targad/internal/dataset/synth"
	"targad/internal/faultinject"
	"targad/internal/mat"
	"targad/internal/rng"
	"targad/internal/serve"
	"targad/internal/wire"
)

// fixturePath is the committed format-v1 model (32 features); it backs
// the default entry so registry tests stay training-free on the
// default path.
const fixturePath = "../core/testdata/model_v1.gob"

const fixtureDim = 32

// quickCfg mirrors the retrain package's fast-fit configuration for
// the tenant models that must genuinely differ from each other.
func quickCfg() core.Config {
	cfg := core.DefaultConfig()
	cfg.K = 2
	cfg.AEEpochs = 2
	cfg.AELR = 1e-3
	cfg.ClfEpochs = 8
	cfg.ClfLR = 1e-3
	cfg.ClfHidden = []int{16}
	cfg.AEHidden = []int{12, 6}
	return cfg
}

// tenantFixtures are two distinct trained models (different fit seeds
// on the same synthetic bundle) plus rows in their feature space,
// built once per test binary.
type tenantFixtures struct {
	dir          string // holds alpha.gob and beta.gob
	alpha, beta  string // model file paths
	rows         [][]float64
	alphaOffline []float64 // offline Score over rows, per model
	betaOffline  []float64
}

var (
	tfOnce sync.Once
	tfErr  error
	tf     tenantFixtures
)

// tenantModels fits (once) and returns the two tenant model fixtures.
func tenantModels(t testing.TB) tenantFixtures {
	t.Helper()
	tfOnce.Do(func() {
		dir, err := os.MkdirTemp("", "targad-registry-models")
		if err != nil {
			tfErr = err
			return
		}
		b, err := synth.Generate(synth.KDDCUP99(), synth.Options{
			Scale:          0.03,
			Seed:           7,
			LabeledPerType: 20,
		})
		if err != nil {
			tfErr = err
			return
		}
		rows := make([][]float64, 6)
		for i := range rows {
			rows[i] = append([]float64(nil), b.Train.Unlabeled.Row(i)...)
		}
		x := mat.New(len(rows), len(rows[0]))
		for i, row := range rows {
			copy(x.Row(i), row)
		}
		tf = tenantFixtures{
			dir:   dir,
			alpha: filepath.Join(dir, "alpha.gob"),
			beta:  filepath.Join(dir, "beta.gob"),
			rows:  rows,
		}
		for _, fx := range []struct {
			seed    int64
			path    string
			offline *[]float64
		}{
			{11, tf.alpha, &tf.alphaOffline},
			{22, tf.beta, &tf.betaOffline},
		} {
			m := core.New(quickCfg(), fx.seed)
			if tfErr = m.Fit(context.Background(), b.Train); tfErr != nil {
				return
			}
			f, err := os.Create(fx.path)
			if err != nil {
				tfErr = err
				return
			}
			if tfErr = m.Save(f); tfErr != nil {
				f.Close()
				return
			}
			if tfErr = f.Close(); tfErr != nil {
				return
			}
			if *fx.offline, tfErr = m.Score(context.Background(), x); tfErr != nil {
				return
			}
		}
		if len(tf.alphaOffline) == len(tf.betaOffline) {
			same := true
			for i := range tf.alphaOffline {
				if tf.alphaOffline[i] != tf.betaOffline[i] {
					same = false
					break
				}
			}
			if same {
				tfErr = errors.New("tenant fixtures scored identically; seeds must differ")
			}
		}
	})
	if tfErr != nil {
		t.Fatalf("tenant model fixtures: %v", tfErr)
	}
	return tf
}

// writeManifest marshals m into dir/manifest.json.
func writeManifest(t testing.TB, dir string, m Manifest) {
	t.Helper()
	raw, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, ManifestFile), raw, 0o644); err != nil {
		t.Fatal(err)
	}
}

// absFixture resolves the committed fixture to an absolute path so
// manifests in temp dirs can reference it.
func absFixture(t testing.TB) string {
	t.Helper()
	p, err := filepath.Abs(fixturePath)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// newTestRegistry stands a registry up over a manifest with the
// committed fixture as default plus the two tenant models, and
// registers cleanup. mut may adjust the config before New.
func newTestRegistry(t testing.TB, mut func(*Config)) (*Registry, tenantFixtures) {
	t.Helper()
	fx := tenantModels(t)
	dir := t.TempDir()
	writeManifest(t, dir, Manifest{
		Default: "base",
		Models: map[string]ModelSpec{
			"base":  {Path: absFixture(t)},
			"alpha": {Path: fx.alpha},
			"beta":  {Path: fx.beta},
		},
		Tenants: map[string]string{
			"tenant-a": "alpha",
			"tenant-b": "beta",
		},
	})
	cfg := Config{
		Dir:  dir,
		Base: serve.Config{MaxBatch: 1, Strategy: core.ED},
		Logf: t.Logf,
	}
	if mut != nil {
		mut(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r, fx
}

// defaultRows builds deterministic rows in the default fixture's
// feature space.
func defaultRows(n int, seed int64) [][]float64 {
	r := rng.New(seed)
	out := make([][]float64, n)
	for i := range out {
		row := make([]float64, fixtureDim)
		for j := range row {
			row[j] = r.Float64()
		}
		out[i] = row
	}
	return out
}

// scoreVia posts a JSON score request with optional model/tenant
// headers and returns status, body.
func scoreVia(t testing.TB, client *http.Client, url string, rows [][]float64, model, tenant string) (int, []byte) {
	t.Helper()
	raw, err := json.Marshal(map[string]any{"instances": rows})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, url+"/score", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if model != "" {
		req.Header.Set(HeaderModel, model)
	}
	if tenant != "" {
		req.Header.Set(HeaderTenant, tenant)
	}
	resp, err := client.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

func decodeScores(t testing.TB, body []byte) []float64 {
	t.Helper()
	var out struct {
		Scores []float64 `json:"scores"`
	}
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("decode scores: %v (%s)", err, body)
	}
	return out.Scores
}

// requireScores compares served JSON scores to the offline reference
// with == (float64 JSON round-trips bitwise).
func requireScores(t testing.TB, body []byte, want []float64) {
	t.Helper()
	got := decodeScores(t, body)
	if len(got) != len(want) {
		t.Fatalf("got %d scores, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("row %d: served score %v != offline %v", i, got[i], want[i])
		}
	}
}

func TestLoadManifestValidation(t *testing.T) {
	model := absFixture(t)
	cases := []struct {
		name string
		m    Manifest
		want string
	}{
		{"no-models", Manifest{Default: "a"}, "no models"},
		{"no-default", Manifest{Models: map[string]ModelSpec{"a": {Path: model}}}, "no default"},
		{"bad-name", Manifest{Default: "a", Models: map[string]ModelSpec{"a": {Path: model}, "../evil": {Path: model}}}, "invalid model name"},
		{"no-path", Manifest{Default: "a", Models: map[string]ModelSpec{"a": {}}}, "no path"},
		{"bad-strategy", Manifest{Default: "a", Models: map[string]ModelSpec{"a": {Path: model, Strategy: "??"}}}, "unknown strategy"},
		{"bad-precision", Manifest{Default: "a", Models: map[string]ModelSpec{"a": {Path: model, Precision: "f16"}}}, "unknown precision"},
		{"default-unmanifested", Manifest{Default: "b", Models: map[string]ModelSpec{"a": {Path: model}}}, "not manifested"},
		{"tenant-unmanifested", Manifest{Default: "a", Models: map[string]ModelSpec{"a": {Path: model}}, Tenants: map[string]string{"t": "b"}}, "unmanifested model"},
		{"empty-tenant", Manifest{Default: "a", Models: map[string]ModelSpec{"a": {Path: model}}, Tenants: map[string]string{"": "a"}}, "empty tenant"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeManifest(t, dir, tc.m)
			if _, err := LoadManifest(dir); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("LoadManifest error = %v, want substring %q", err, tc.want)
			}
		})
	}
	t.Run("missing-file", func(t *testing.T) {
		if _, err := LoadManifest(t.TempDir()); err == nil {
			t.Fatal("LoadManifest over an empty dir succeeded")
		}
	})
	t.Run("relative-paths-resolve", func(t *testing.T) {
		dir := t.TempDir()
		raw, err := os.ReadFile(fixturePath)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "m.gob"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		writeManifest(t, dir, Manifest{Default: "a", Models: map[string]ModelSpec{"a": {Path: "m.gob"}}})
		m, err := LoadManifest(dir)
		if err != nil {
			t.Fatal(err)
		}
		if got := m.Models["a"].Path; got != filepath.Join(dir, "m.gob") {
			t.Fatalf("relative path resolved to %q", got)
		}
	})
}

func TestRegistryServesDefaultAndTenants(t *testing.T) {
	r, fx := newTestRegistry(t, nil)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	// Default path: no headers at all.
	rows := defaultRows(4, 123)
	base, err := core.Load(mustOpenFile(t, absFixture(t)))
	if err != nil {
		t.Fatal(err)
	}
	x := mat.New(len(rows), fixtureDim)
	for i, row := range rows {
		copy(x.Row(i), row)
	}
	baseOffline, err := base.Score(context.Background(), x)
	if err != nil {
		t.Fatal(err)
	}
	status, body := scoreVia(t, ts.Client(), ts.URL, rows, "", "")
	if status != http.StatusOK {
		t.Fatalf("default /score: status %d: %s", status, body)
	}
	requireScores(t, body, baseOffline)

	// Tenant header routes to the tenant's model; the answer must be
	// bitwise the tenant model's offline scores, not the default's.
	status, body = scoreVia(t, ts.Client(), ts.URL, fx.rows, "", "tenant-a")
	if status != http.StatusOK {
		t.Fatalf("tenant-a /score: status %d: %s", status, body)
	}
	requireScores(t, body, fx.alphaOffline)

	// The model header wins over the tenant header.
	status, body = scoreVia(t, ts.Client(), ts.URL, fx.rows, "beta", "tenant-a")
	if status != http.StatusOK {
		t.Fatalf("beta /score: status %d: %s", status, body)
	}
	requireScores(t, body, fx.betaOffline)

	// Unknown tenants fall through to the default model.
	status, body = scoreVia(t, ts.Client(), ts.URL, rows, "", "nobody-knows-me")
	if status != http.StatusOK {
		t.Fatalf("unknown-tenant /score: status %d: %s", status, body)
	}
	requireScores(t, body, baseOffline)

	c := r.Counters()
	if c.Loads != 3 { // base eager + alpha + beta
		t.Fatalf("Loads = %d, want 3", c.Loads)
	}
	if got := r.Hot(); len(got) != 3 {
		t.Fatalf("Hot() = %v, want all three models", got)
	}
}

func mustOpenFile(t testing.TB, path string) *os.File {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { f.Close() })
	return f
}

// TestUnknownModelTyped404 is the cardinality-hygiene contract: an
// unmanifested model name is rejected with a typed 404 on both wire
// formats, and the bogus name never appears in /metrics.
func TestUnknownModelTyped404(t *testing.T) {
	r, _ := newTestRegistry(t, nil)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	const bogus = "cardinality-bomb-9000"

	// JSON request.
	status, body := scoreVia(t, ts.Client(), ts.URL, defaultRows(2, 1), bogus, "")
	if status != http.StatusNotFound {
		t.Fatalf("JSON unknown model: status %d: %s", status, body)
	}
	var jerr struct {
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body, &jerr); err != nil || !strings.Contains(jerr.Error, bogus) {
		t.Fatalf("JSON 404 body %q does not carry the typed error", body)
	}

	// Binary request: the 404 must come back as a wire error frame.
	frame, err := wire.AppendRequestF64(nil, defaultRows(2, 1), int(core.ED), false)
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/score", bytes.NewReader(frame))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", wire.ContentType)
	req.Header.Set(HeaderModel, bogus)
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("binary unknown model: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != wire.ContentType {
		t.Fatalf("binary 404 Content-Type = %q, want %q", ct, wire.ContentType)
	}
	code, msg, err := wire.DecodeErrorFrame(raw)
	if err != nil {
		t.Fatalf("binary 404 is not a wire error frame: %v", err)
	}
	if code != http.StatusNotFound || !strings.Contains(msg, bogus) {
		t.Fatalf("wire error = (%d, %q), want 404 naming the model", code, msg)
	}

	// Admin endpoints reject via ?model= too.
	dresp, err := ts.Client().Get(ts.URL + "/drift?model=" + bogus)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, dresp.Body)
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Fatalf("/drift?model=%s: status %d, want 404", bogus, dresp.StatusCode)
	}

	// The hygiene point: none of that minted a label or an entry.
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if strings.Contains(string(mbody), bogus) {
		t.Fatalf("/metrics leaked the unmanifested name %q", bogus)
	}
	if c := r.Counters(); c.HotModels != 1 {
		t.Fatalf("HotModels = %d after rejected requests, want 1", c.HotModels)
	}
}

// TestSingleFlightJoin drives the flight path white-box: a registered
// in-progress flight makes a concurrent acquire wait and share the
// builder's outcome instead of loading twice.
func TestSingleFlightJoin(t *testing.T) {
	r, _ := newTestRegistry(t, nil)

	f := &flight{done: make(chan struct{})}
	r.mu.Lock()
	r.flights["alpha"] = f
	r.mu.Unlock()

	got := make(chan error, 1)
	go func() {
		_, _, err := r.acquire("alpha")
		got <- err
	}()

	// The waiter must be parked on the flight, not loading on its own.
	deadline := time.Now().Add(2 * time.Second)
	for r.Counters().SingleflightWaits == 0 {
		if time.Now().After(deadline) {
			t.Fatal("acquire never joined the in-progress flight")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-got:
		t.Fatalf("acquire returned %v before the flight finished", err)
	default:
	}

	wantErr := errors.New("boom")
	r.mu.Lock()
	delete(r.flights, "alpha")
	f.err = wantErr
	r.mu.Unlock()
	close(f.done)

	if err := <-got; !errors.Is(err, wantErr) {
		t.Fatalf("joined acquire err = %v, want the flight's error", err)
	}
	if c := r.Counters(); c.Loads != 1 || c.SingleflightWaits != 1 {
		t.Fatalf("counters = %+v, want Loads 1 (default only), SingleflightWaits 1", c)
	}

	// The failed flight left no residue: a fresh acquire loads cleanly.
	e, release, err := r.acquire("alpha")
	if err != nil {
		t.Fatalf("acquire after failed flight: %v", err)
	}
	release()
	if e.name != "alpha" {
		t.Fatalf("acquired %q, want alpha", e.name)
	}
}

// TestLRUEvictionCycle checks the bound, the LRU choice, and that a
// re-loaded model scores bitwise-identically after its eviction.
func TestLRUEvictionCycle(t *testing.T) {
	r, fx := newTestRegistry(t, func(c *Config) { c.MaxHot = 2 })
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	score := func(model string, want []float64) {
		t.Helper()
		status, body := scoreVia(t, ts.Client(), ts.URL, fx.rows, model, "")
		if status != http.StatusOK {
			t.Fatalf("%s /score: status %d: %s", model, status, body)
		}
		requireScores(t, body, want)
	}

	score("alpha", fx.alphaOffline) // hot: base, alpha
	score("beta", fx.betaOffline)   // alpha is LRU -> evicted; hot: base, beta
	c := r.Counters()
	if c.Evictions != 1 || c.HotModels != 2 {
		t.Fatalf("after beta load: counters %+v, want 1 eviction, 2 hot", c)
	}
	hot := r.Hot()
	if len(hot) != 2 || hot[0] != "base" || hot[1] != "beta" {
		t.Fatalf("Hot() = %v, want [base beta]", hot)
	}

	// Reload after evict: bitwise-identical to the first serving.
	score("alpha", fx.alphaOffline)
	c = r.Counters()
	if c.Evictions != 2 || c.Loads != 4 {
		t.Fatalf("after alpha reload: counters %+v, want 2 evictions, 4 loads", c)
	}
}

// TestRegistryEvictUnderLoad evicts a model while one of its batches
// is held in flight: the pinned request must finish 200 with correct
// scores (eviction never cancels work), and the model must score
// bitwise-identically when re-loaded. Run under -race by the ci smoke.
func TestRegistryEvictUnderLoad(t *testing.T) {
	defer faultinject.Reset()
	r, fx := newTestRegistry(t, func(c *Config) { c.MaxHot = 2 })
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	// Warm alpha so the slow-score fault hits its batch, not its load.
	status, body := scoreVia(t, ts.Client(), ts.URL, fx.rows, "alpha", "")
	if status != http.StatusOK {
		t.Fatalf("warm alpha: status %d: %s", status, body)
	}

	faultinject.ArmDelay(faultinject.ServeSlowScore, 300*time.Millisecond, 1)
	type res struct {
		status int
		body   []byte
	}
	inflight := make(chan res, 1)
	go func() {
		status, body := scoreVia(t, ts.Client(), ts.URL, fx.rows, "alpha", "")
		inflight <- res{status, body}
	}()
	// Wait until alpha's batch is inside the delayed inference pass.
	deadline := time.Now().Add(2 * time.Second)
	for faultinject.Fired(faultinject.ServeSlowScore) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("slow-score fault never fired")
		}
		time.Sleep(time.Millisecond)
	}

	// Loading beta forces the LRU choice onto alpha — whose request is
	// still in flight. Publish-before-close means beta's caller never
	// waits on alpha's drain.
	status, body = scoreVia(t, ts.Client(), ts.URL, fx.rows, "beta", "")
	if status != http.StatusOK {
		t.Fatalf("beta during alpha in-flight: status %d: %s", status, body)
	}
	requireScores(t, body, fx.betaOffline)
	if c := r.Counters(); c.Evictions == 0 {
		t.Fatalf("counters %+v: beta's load should have evicted alpha", c)
	}

	// The pinned alpha request survives its own eviction.
	got := <-inflight
	if got.status != http.StatusOK {
		t.Fatalf("in-flight alpha request: status %d: %s", got.status, got.body)
	}
	requireScores(t, got.body, fx.alphaOffline)

	// And a fresh load serves the same bits as before the eviction.
	status, body = scoreVia(t, ts.Client(), ts.URL, fx.rows, "alpha", "")
	if status != http.StatusOK {
		t.Fatalf("alpha after evict: status %d: %s", status, body)
	}
	requireScores(t, body, fx.alphaOffline)
}

// TestRegistryLoadFailure injects a cold-load failure: the request
// errors, the counter moves, nothing half-built leaks, and the next
// request loads clean.
func TestRegistryLoadFailure(t *testing.T) {
	defer faultinject.Reset()
	r, fx := newTestRegistry(t, nil)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	faultinject.Arm(faultinject.RegistryLoadFail, 1)
	status, body := scoreVia(t, ts.Client(), ts.URL, fx.rows, "alpha", "")
	if status != http.StatusInternalServerError {
		t.Fatalf("injected load failure: status %d: %s", status, body)
	}
	if !strings.Contains(string(body), "injected") {
		t.Fatalf("error body %q does not name the injected failure", body)
	}
	c := r.Counters()
	if c.LoadErrs != 1 || c.HotModels != 1 {
		t.Fatalf("counters %+v, want 1 load error and only the default hot", c)
	}

	// The fault is spent; the retry loads and serves.
	status, body = scoreVia(t, ts.Client(), ts.URL, fx.rows, "alpha", "")
	if status != http.StatusOK {
		t.Fatalf("retry after injected failure: status %d: %s", status, body)
	}
	requireScores(t, body, fx.alphaOffline)
}

// TestPerModelReloadAndMetrics: /reload?model= bumps only that model's
// version, and /metrics renders per-model labeled series exactly once
// per metric name.
func TestPerModelReloadAndMetrics(t *testing.T) {
	r, fx := newTestRegistry(t, nil)
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()

	// Warm alpha hot.
	if status, body := scoreVia(t, ts.Client(), ts.URL, fx.rows, "alpha", ""); status != http.StatusOK {
		t.Fatalf("warm alpha: status %d: %s", status, body)
	}

	reload := func(query string) map[string]int64 {
		t.Helper()
		resp, err := ts.Client().Post(ts.URL+"/reload"+query, "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/reload%s: status %d: %s", query, resp.StatusCode, body)
		}
		var out map[string]int64
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatalf("/reload%s: %v (%s)", query, err, body)
		}
		return out
	}
	if v := reload("?model=alpha")["model_version"]; v != 2 {
		t.Fatalf("alpha reload -> version %d, want 2", v)
	}

	scrape := func() string {
		t.Helper()
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return string(body)
	}
	m := scrape()
	for _, want := range []string{
		`targad_serve_model_version{model="alpha"} 2`,
		`targad_serve_model_version{model="base"} 1`,
		`targad_serve_requests_total{model="alpha"}`,
		`targad_serve_requests_total{model="base"}`,
		"targad_registry_models 3",
		"targad_registry_hot_models 2",
		"targad_registry_loads_total 2",
	} {
		if !strings.Contains(m, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, m)
		}
	}
	// Exposition validity: every metric name has exactly one HELP and
	// one TYPE line, and both name the same families.
	help, typ := map[string]int{}, map[string]int{}
	for _, line := range strings.Split(m, "\n") {
		switch {
		case strings.HasPrefix(line, "# HELP "):
			help[strings.Fields(line)[2]]++
		case strings.HasPrefix(line, "# TYPE "):
			typ[strings.Fields(line)[2]]++
		}
	}
	for name, n := range typ {
		if n != 1 || help[name] != 1 {
			t.Fatalf("metric %s declared %d TYPE and %d HELP lines, want 1 each", name, n, help[name])
		}
	}
	for name := range help {
		if typ[name] == 0 {
			t.Fatalf("HELP line for %s names no TYPE-declared family", name)
		}
	}

	// /models reflects the same picture.
	resp, err := ts.Client().Get(ts.URL + "/models")
	if err != nil {
		t.Fatal(err)
	}
	var models struct {
		Default string   `json:"default"`
		Models  []string `json:"models"`
		Hot     []string `json:"hot"`
		MaxHot  int      `json:"max_hot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&models); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if models.Default != "base" || len(models.Models) != 3 || len(models.Hot) != 2 || models.MaxHot != 4 {
		t.Fatalf("/models = %+v", models)
	}
}

// TestRegistryClose: a closed registry answers 503 for cold loads and
// drains cleanly.
func TestRegistryClose(t *testing.T) {
	fx := tenantModels(t)
	dir := t.TempDir()
	writeManifest(t, dir, Manifest{
		Default: "base",
		Models: map[string]ModelSpec{
			"base":  {Path: absFixture(t)},
			"alpha": {Path: fx.alpha},
		},
	})
	r, err := New(Config{Dir: dir, Base: serve.Config{MaxBatch: 1, Strategy: core.ED}})
	if err != nil {
		t.Fatal(err)
	}
	r.Close()
	r.Close() // idempotent

	if _, _, err := r.acquire("alpha"); !errors.Is(err, ErrClosed) {
		t.Fatalf("acquire after Close: err = %v, want ErrClosed", err)
	}
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	status, body := scoreVia(t, ts.Client(), ts.URL, fx.rows, "alpha", "")
	if status != http.StatusServiceUnavailable {
		t.Fatalf("cold score after Close: status %d: %s", status, body)
	}
}
