package registry

import (
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"targad/internal/core"
	"targad/internal/retrain"
	"targad/internal/serve"
)

// families returns the names declared by the exposition's # TYPE lines.
func families(text string) []string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			out = append(out, strings.Fields(line)[2])
		}
	}
	sort.Strings(out)
	return out
}

// TestRegistryMetricsParity: a model served through the registry
// exposes every family the same model exposes served alone — feedback,
// acquisition, retrain, shadow and latency histogram included — with
// each per-model sample labelled exactly {model="<name>"} (histogram
// buckets {model="<name>",le="..."}), plus the registry's own families
// and a single unlabelled build-info line.
func TestRegistryMetricsParity(t *testing.T) {
	fx := tenantModels(t)
	base := serve.Config{Strategy: core.ED, ShadowSample: 1}
	dir := t.TempDir()
	spec := ModelSpec{
		Path:             fx.alpha,
		RetrainLabeled:   filepath.Join(dir, "labeled.csv"),
		RetrainUnlabeled: filepath.Join(dir, "unlabeled.csv"),
	}

	// Single-model stack, built as targad-serve builds it.
	st, err := OpenStack(base, spec, t.TempDir(), 8, &retrain.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	direct := httptest.NewServer(st.Server.Handler())
	defer direct.Close()

	// The same model as a registry's only entry, configured alike.
	writeManifest(t, dir, Manifest{
		Default: "alpha",
		Models:  map[string]ModelSpec{"alpha": spec},
	})
	reg, err := New(Config{
		Dir:           dir,
		Base:          base,
		FeedbackRoot:  t.TempDir(),
		AcquireBudget: 8,
		Retrain:       &retrain.Config{},
		Logf:          t.Logf,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer reg.Close()
	hosted := httptest.NewServer(reg.Handler())
	defer hosted.Close()

	// Identical traffic, then an active shadow on both, so the drift
	// and shadow families are all present. The shadow is a fresh load
	// of the served file, installed the way a retrain cycle installs
	// its candidate.
	scrape := func(ts *httptest.Server, srv *serve.Server) string {
		t.Helper()
		if status, body := scoreVia(t, ts.Client(), ts.URL, fx.rows, "", ""); status != http.StatusOK {
			t.Fatalf("score: status %d: %s", status, body)
		}
		cand, err := core.Load(mustOpenFile(t, spec.Path))
		if err != nil {
			t.Fatal(err)
		}
		if _, err := srv.ShadowModel(cand, spec.Path); err != nil {
			t.Fatal(err)
		}
		resp, err := ts.Client().Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}
	single, multi := scrape(direct, st.Server), scrape(hosted, reg.def.Server)

	want := families(single)
	for _, name := range families(multi) {
		if strings.HasPrefix(name, "targad_registry_") {
			want = append(want, name)
		}
	}
	sort.Strings(want)
	if got := families(multi); strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("registry families\n%s\nwant the single-model families plus targad_registry_*\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	for _, name := range []string{"targad_serve_request_duration_seconds", "targad_shadow_rows_total",
		"targad_acquire_offered_total", "targad_retrain_attempts_total", "targad_feedback_frames_total"} {
		if !strings.Contains(multi, "# TYPE "+name+" ") {
			t.Fatalf("registry /metrics lacks family %s", name)
		}
	}

	sample := regexp.MustCompile(`^([a-z_]+)(\{[^}]*\})? \S+$`)
	bucket := regexp.MustCompile(`^\{model="alpha",le="[^"]+"\}$`)
	buildInfo := 0
	for _, line := range strings.Split(strings.TrimSpace(multi), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := sample.FindStringSubmatch(line)
		switch {
		case m == nil:
			t.Fatalf("malformed sample line %q", line)
		case m[1] == "targad_build_info":
			buildInfo++
		case strings.HasPrefix(m[1], "targad_registry_"):
			if m[2] != "" {
				t.Fatalf("registry series carries labels: %q", line)
			}
		case strings.HasSuffix(m[1], "_bucket"):
			if !bucket.MatchString(m[2]) {
				t.Fatalf("bucket labels %q, want {model=\"alpha\",le=...}", line)
			}
		case m[2] != `{model="alpha"}`:
			t.Fatalf("per-model sample %q, want exactly {model=\"alpha\"}", line)
		}
	}
	if buildInfo != 1 {
		t.Fatalf("targad_build_info rendered %d times, want 1", buildInfo)
	}
}
