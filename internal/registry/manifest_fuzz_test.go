package registry

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"runtime"
	"testing"

	"targad/internal/serve"
)

// fuzzDir is the absolute directory manifests are parsed against.
// parseManifest only joins it onto relative paths; it never reads it.
const fuzzDir = "/srv/targad/models"

// manifestAllocBound is the most parseManifest may allocate for an
// n-byte manifest: a fixed allowance for the decoder's state plus a
// per-byte factor covering the decoded strings, the map entries they
// key and the resolved paths. The densest input, a models map of
// minimal entries ("k":0), allocates about 60–70 bytes per input byte.
func manifestAllocBound(n int) uint64 { return 1<<20 + 128*uint64(n) }

// checkManifest runs parseManifest on raw and enforces its contract on
// untrusted bytes: no panic, allocation bounded by the input length,
// and either an error matching ErrBadManifest or a manifest that keeps
// every invariant LoadManifest documents.
func checkManifest(t *testing.T, raw []byte) {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := parseManifest(fuzzDir, raw)
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > manifestAllocBound(len(raw)) {
		t.Fatalf("parseManifest allocated %d bytes for a %d-byte manifest (bound %d)", alloc, len(raw), manifestAllocBound(len(raw)))
	}
	if err != nil {
		if !errors.Is(err, ErrBadManifest) {
			t.Fatalf("parseManifest error does not match ErrBadManifest: %v", err)
		}
		return
	}
	if len(m.Models) == 0 {
		t.Fatal("accepted a manifest with no models")
	}
	if _, ok := m.Models[m.Default]; !ok {
		t.Fatalf("accepted default %q, which is not manifested", m.Default)
	}
	for name, spec := range m.Models {
		if !ValidName(name) {
			t.Fatalf("accepted invalid model name %q", name)
		}
		if !filepath.IsAbs(spec.Path) {
			t.Fatalf("model %q: path %q did not resolve to an absolute path", name, spec.Path)
		}
		for _, p := range []string{spec.RetrainLabeled, spec.RetrainUnlabeled} {
			if p != "" && !filepath.IsAbs(p) {
				t.Fatalf("model %q: retrain path %q did not resolve to an absolute path", name, p)
			}
		}
		if st, ok := serve.ParseStrategy(spec.Strategy); spec.hasStrat != (spec.Strategy != "") || spec.hasStrat && (!ok || st != spec.strat) {
			t.Fatalf("model %q: strategy %q pre-parsed as (%v, %v)", name, spec.Strategy, spec.strat, spec.hasStrat)
		}
		if p, ok := serve.ParsePrecision(spec.Precision); spec.hasPrecision != (spec.Precision != "") || spec.hasPrecision && (!ok || p != spec.precision) {
			t.Fatalf("model %q: precision %q pre-parsed as (%v, %v)", name, spec.Precision, spec.precision, spec.hasPrecision)
		}
	}
	for tenant, model := range m.Tenants {
		if tenant == "" {
			t.Fatal("accepted an empty tenant ID")
		}
		if _, ok := m.Models[model]; !ok {
			t.Fatalf("tenant %q maps to unmanifested model %q", tenant, model)
		}
	}
}

// FuzzLoadManifest feeds arbitrary bytes to the manifest parser behind
// LoadManifest, seeded with the manifests the registry tests write:
// every rejected case of TestLoadManifestValidation, the tenant-routing
// manifest, a retrain-armed one and one with relative paths.
func FuzzLoadManifest(f *testing.F) {
	const model = "/srv/targad/models/base.gob"
	seeds := []Manifest{
		{
			Default: "base",
			Models: map[string]ModelSpec{
				"base":  {Path: model},
				"alpha": {Path: "alpha.gob", Strategy: "MSP"},
				"beta":  {Path: "beta.gob", Precision: "f32"},
			},
			Tenants: map[string]string{"tenant-a": "alpha", "tenant-b": "beta"},
		},
		{
			Default: "alpha",
			Models: map[string]ModelSpec{"alpha": {
				Path:             model,
				Strategy:         "ED",
				RetrainLabeled:   "labeled.csv",
				RetrainUnlabeled: "/data/unlabeled.csv",
				RetrainCSVHeader: true,
			}},
		},
		{Default: "a", Models: map[string]ModelSpec{"a": {Path: "m.gob"}}},
	}
	for _, tc := range invalidManifests(model) {
		seeds = append(seeds, tc.m)
	}
	for _, m := range seeds {
		raw, err := json.MarshalIndent(m, "", "  ")
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	f.Add([]byte(`{"default":"a","models":{"a":{"path":"m.gob"}},"tenants":{"t":"a"}`))
	f.Fuzz(func(t *testing.T, raw []byte) { checkManifest(t, raw) })
}
