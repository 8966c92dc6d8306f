package registry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"

	"targad/internal/core"
	"targad/internal/retrain"
	"targad/internal/serve"
)

// stackCheck is one request against a stack and the status it must get.
type stackCheck struct {
	method, path string
	status       int
	contains     string // substring the body must hold ("" = any)
}

// TestOpenStack walks OpenStack's arming rules: the verdict store needs
// a directory, the acquisition queue only a budget, and retraining a
// store, both CSVs and a template; a model that cannot load is an
// error.
func TestOpenStack(t *testing.T) {
	model := absFixture(t)
	csvs := func(spec ModelSpec) ModelSpec {
		dir := t.TempDir()
		spec.RetrainLabeled = filepath.Join(dir, "labeled.csv")
		spec.RetrainUnlabeled = filepath.Join(dir, "unlabeled.csv")
		return spec
	}
	cases := []struct {
		name    string
		spec    ModelSpec
		dir     bool // open a verdict store in a temp directory
		budget  int
		rt      *retrain.Config
		wantErr bool
		checks  []stackCheck
	}{
		{
			name:   "budget without directory",
			spec:   ModelSpec{Path: model},
			budget: 8,
			checks: []stackCheck{
				{http.MethodGet, "/feedback/queue", http.StatusOK, `"budget":8`},
				{http.MethodPost, "/feedback", http.StatusNotImplemented, ""},
				{http.MethodPost, "/retrain", http.StatusNotImplemented, ""},
			},
		},
		{
			name: "directory with both CSVs and a template",
			spec: csvs(ModelSpec{Path: model}),
			dir:  true,
			rt:   &retrain.Config{},
			checks: []stackCheck{
				{http.MethodGet, "/retrain", http.StatusOK, `"configured":true`},
				{http.MethodPost, "/retrain", http.StatusConflict, "not enough verdicts"},
				{http.MethodGet, "/feedback/queue", http.StatusNotImplemented, ""},
			},
		},
		{
			name: "both CSVs without directory",
			spec: csvs(ModelSpec{Path: model}),
			rt:   &retrain.Config{},
			checks: []stackCheck{
				{http.MethodGet, "/retrain", http.StatusOK, `"configured":false`},
				{http.MethodPost, "/retrain", http.StatusNotImplemented, ""},
			},
		},
		{
			name: "directory and CSVs without a template",
			spec: csvs(ModelSpec{Path: model}),
			dir:  true,
			checks: []stackCheck{
				{http.MethodPost, "/retrain", http.StatusNotImplemented, ""},
			},
		},
		{
			name:    "missing model file",
			spec:    ModelSpec{Path: filepath.Join(t.TempDir(), "absent.gob")},
			dir:     true,
			budget:  8,
			wantErr: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var dir string
			if tc.dir {
				dir = t.TempDir()
			}
			st, err := OpenStack(serve.Config{Strategy: core.ED}, tc.spec, dir, tc.budget, tc.rt)
			if tc.wantErr {
				if err == nil {
					st.Close()
					t.Fatal("OpenStack succeeded, want an error")
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			ts := httptest.NewServer(st.Server.Handler())
			defer ts.Close()
			for _, c := range tc.checks {
				req, err := http.NewRequest(c.method, ts.URL+c.path, strings.NewReader("{}"))
				if err != nil {
					t.Fatal(err)
				}
				resp, err := ts.Client().Do(req)
				if err != nil {
					t.Fatal(err)
				}
				body, err := io.ReadAll(resp.Body)
				resp.Body.Close()
				if err != nil {
					t.Fatal(err)
				}
				if resp.StatusCode != c.status || !strings.Contains(string(body), c.contains) {
					t.Fatalf("%s %s: status %d %s, want %d containing %q",
						c.method, c.path, resp.StatusCode, body, c.status, c.contains)
				}
			}
		})
	}
}

// TestRegistryAcquireWithoutFeedback: an acquisition budget arms every
// entry's queue even with no verdict store, as it does for a
// single-model server.
func TestRegistryAcquireWithoutFeedback(t *testing.T) {
	r, _ := newTestRegistry(t, func(c *Config) { c.AcquireBudget = 8 })
	ts := httptest.NewServer(r.Handler())
	defer ts.Close()
	for _, model := range []string{"", "alpha"} {
		resp, err := ts.Client().Get(ts.URL + "/feedback/queue?model=" + model)
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"budget":8`) {
			t.Fatalf("GET /feedback/queue?model=%s: status %d %s, want 200 with budget 8", model, resp.StatusCode, body)
		}
	}
}
