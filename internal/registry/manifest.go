// Package registry turns one targad-serve process into a multi-model
// host: a manifest maps model names (and tenant IDs) to saved model
// files, a bounded hot set keeps at most MaxHot of them loaded, and
// each loaded model owns the full single-model serving stack — its own
// admission slots, atomic model snapshot, drift window, feedback store,
// and retrain slot — so tenants never share mutable state.
//
// The request contract (DESIGN.md §15):
//
//   - /score routes on the X-Targad-Model header (must name a
//     manifested model), else the X-Targad-Tenant header (unknown
//     tenants fall through to the default model), else the default.
//     The default path bypasses the registry entirely — one pointer
//     dereference, zero extra allocations over a single-model server.
//   - Admin endpoints (/reload, /drift, /retrain, /feedback, ...)
//     resolve the model from the ?model= query first, then the tenant
//     header, then the default, and delegate to that entry's handler.
//   - A cold model loads lazily on first use, single-flighted; past
//     MaxHot the least-recently-used unpinned entry is evicted, after
//     every in-flight request on it drains.
//
// Unmanifested model names are rejected with a typed 404 before any
// metric label or map entry is minted from them: Prometheus label
// values only ever come from manifest-validated names.
package registry

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"targad/internal/core"
	"targad/internal/serve"
)

// ManifestFile is the file name LoadManifest reads inside the model
// directory.
const ManifestFile = "manifest.json"

// nameRE bounds model names: they become Prometheus label values, URL
// query values, and feedback-store directory names, so the charset is
// conservative and the length capped.
var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$`)

// ValidName reports whether name is an acceptable model name.
func ValidName(name string) bool { return nameRE.MatchString(name) }

// ModelSpec is one manifest entry: where the model lives and its
// per-model serving overrides.
type ModelSpec struct {
	// Path is the saved model file (core.Model.Save), relative paths
	// resolve against the manifest directory.
	Path string `json:"path"`
	// Strategy optionally overrides the host's default identification
	// strategy for this model (MSP, ES, ED).
	Strategy string `json:"strategy,omitempty"`
	// Precision optionally overrides the inference precision for this
	// model (f64, f32).
	Precision string `json:"precision,omitempty"`

	// RetrainLabeled / RetrainUnlabeled are this model's base training
	// CSVs (the targad CLI layout); both set arms the per-model retrain
	// cycle when the host configures retraining.
	RetrainLabeled   string `json:"retrain_labeled,omitempty"`
	RetrainUnlabeled string `json:"retrain_unlabeled,omitempty"`
	// RetrainCSVHeader marks the retraining CSVs as carrying a header
	// row.
	RetrainCSVHeader bool `json:"retrain_csv_header,omitempty"`

	// strategy/precision pre-parsed by LoadManifest so a bad enum fails
	// at startup, not on the first cold load.
	strat        core.OODStrategy
	hasStrat     bool
	precision    serve.Precision
	hasPrecision bool
}

// Manifest is the model directory's manifest.json.
type Manifest struct {
	// Default names the model served when no header or query selects
	// one. Required; the default entry is pinned hot for the process
	// lifetime.
	Default string `json:"default"`
	// Models maps model names to their specs.
	Models map[string]ModelSpec `json:"models"`
	// Tenants maps tenant IDs (X-Targad-Tenant values) to model names.
	// Tenants not listed here are served the default model.
	Tenants map[string]string `json:"tenants,omitempty"`
}

// Names returns the manifested model names, sorted.
func (m *Manifest) Names() []string {
	names := make([]string, 0, len(m.Models))
	for name := range m.Models {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// ErrBadManifest matches every LoadManifest failure on a manifest.json
// that was read: malformed JSON or a broken invariant. A missing or
// unreadable file fails with the file system's error instead.
var ErrBadManifest = errors.New("registry: bad manifest")

// manifestError is one manifest failure. Its text is the message alone;
// under errors.Is it matches ErrBadManifest and its cause, if any.
type manifestError struct {
	msg   string
	cause error
}

func (e *manifestError) Error() string { return e.msg }

func (e *manifestError) Unwrap() []error {
	if e.cause == nil {
		return []error{ErrBadManifest}
	}
	return []error{ErrBadManifest, e.cause}
}

// LoadManifest reads and validates dir/manifest.json: every model name
// well-formed, every path non-empty (resolved against dir), enums
// parseable, the default present, and every tenant mapped to a
// manifested model. Every failure after the read matches
// ErrBadManifest.
func LoadManifest(dir string) (*Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return nil, fmt.Errorf("registry: %w", err)
	}
	return parseManifest(dir, raw)
}

// parseManifest decodes and validates the manifest bytes raw, read from
// dir, for LoadManifest.
func parseManifest(dir string, raw []byte) (*Manifest, error) {
	path := filepath.Join(dir, ManifestFile)
	bad := func(cause error, format string, args ...any) error {
		return &manifestError{msg: "registry: " + path + ": " + fmt.Sprintf(format, args...), cause: cause}
	}
	var m Manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		return nil, bad(err, "%v", err)
	}
	if len(m.Models) == 0 {
		return nil, bad(nil, "manifest lists no models")
	}
	if m.Default == "" {
		return nil, bad(nil, "manifest names no default model")
	}
	for name, spec := range m.Models {
		if !ValidName(name) {
			return nil, bad(nil, "invalid model name %q (want %s)", name, nameRE)
		}
		if spec.Path == "" {
			return nil, bad(nil, "model %q has no path", name)
		}
		if !filepath.IsAbs(spec.Path) {
			spec.Path = filepath.Join(dir, spec.Path)
		}
		if spec.RetrainLabeled != "" && !filepath.IsAbs(spec.RetrainLabeled) {
			spec.RetrainLabeled = filepath.Join(dir, spec.RetrainLabeled)
		}
		if spec.RetrainUnlabeled != "" && !filepath.IsAbs(spec.RetrainUnlabeled) {
			spec.RetrainUnlabeled = filepath.Join(dir, spec.RetrainUnlabeled)
		}
		if spec.Strategy != "" {
			st, ok := serve.ParseStrategy(spec.Strategy)
			if !ok {
				return nil, bad(nil, "model %q: unknown strategy %q (want MSP, ES, or ED)", name, spec.Strategy)
			}
			spec.strat, spec.hasStrat = st, true
		}
		if spec.Precision != "" {
			p, ok := serve.ParsePrecision(spec.Precision)
			if !ok {
				return nil, bad(nil, "model %q: unknown precision %q (want f64 or f32)", name, spec.Precision)
			}
			spec.precision, spec.hasPrecision = p, true
		}
		m.Models[name] = spec
	}
	if _, ok := m.Models[m.Default]; !ok {
		return nil, bad(nil, "default model %q is not manifested", m.Default)
	}
	for tenant, model := range m.Tenants {
		if tenant == "" {
			return nil, bad(nil, "empty tenant ID")
		}
		if _, ok := m.Models[model]; !ok {
			return nil, bad(nil, "tenant %q maps to unmanifested model %q", tenant, model)
		}
	}
	return &m, nil
}
