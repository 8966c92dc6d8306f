package core

import (
	"bufio"
	"bytes"
	"context"
	"encoding/gob"
	"errors"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"targad/internal/mat"
	"targad/internal/monitor"
	"targad/internal/rng"
)

// Wire-format compatibility: testdata/model_v1.gob is a format-v1 save
// file and testdata/model_v2.gob a format-v2 save file (v2 added the
// monitoring reference profile), both committed to the repo. Every
// future build must keep decoding both and producing the exact scores
// pinned in the matching *_scores.txt — if savedModel changes shape,
// bump modelFormatVersion and keep the old decode paths instead of
// breaking old files.
//
// Regenerate (only when intentionally re-pinning):
//
//	TARGAD_WRITE_FIXTURES=1 go test ./internal/core -run 'TestModelV[12]Fixture'

const (
	fixtureModel    = "testdata/model_v1.gob"
	fixtureScores   = "testdata/model_v1_scores.txt"
	fixtureModelV2  = "testdata/model_v2.gob"
	fixtureScoresV2 = "testdata/model_v2_scores.txt"
)

// fixtureInput builds the deterministic matrix the fixture scores are
// pinned against. It depends only on the rng package, not on the
// synthetic dataset generator, so dataset changes cannot invalidate it.
func fixtureInput(dim int) *mat.Matrix {
	r := rng.New(7)
	x := mat.New(16, dim)
	for i := range x.Data {
		x.Data[i] = r.Float64()
	}
	return x
}

func TestModelV1FixtureDecodes(t *testing.T) {
	if os.Getenv("TARGAD_WRITE_FIXTURES") != "" {
		writeModelFixture(t)
	}
	raw, err := os.ReadFile(fixtureModel)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with TARGAD_WRITE_FIXTURES=1): %v", err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v1 fixture no longer decodes: %v", err)
	}
	if m.m != 2 || m.k != 2 || m.dim != 32 {
		t.Fatalf("fixture metadata drifted: m=%d k=%d dim=%d, want 2/2/32", m.m, m.k, m.dim)
	}
	got, err := m.Score(context.Background(), fixtureInput(m.dim))
	if err != nil {
		t.Fatal(err)
	}
	want := readPinnedScores(t)
	if len(got) != len(want) {
		t.Fatalf("%d scores, pinned %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d drifted from pinned value: %v vs %v", i, got[i], want[i])
		}
	}
	// A v1 file carries no monitoring profile: the field must default
	// empty and monitoring must disable itself gracefully, not error.
	if m.Profile() != nil {
		t.Fatal("v1 fixture must load with a nil monitoring profile")
	}
}

// TestModelV2FixtureDecodes pins the v2 wire format: the profile field
// round-trips, validates, and scoring stays bitwise-stable.
func TestModelV2FixtureDecodes(t *testing.T) {
	if os.Getenv("TARGAD_WRITE_FIXTURES") != "" {
		writeModelFixtureV2(t)
	}
	raw, err := os.ReadFile(fixtureModelV2)
	if err != nil {
		t.Fatalf("missing fixture (regenerate with TARGAD_WRITE_FIXTURES=1): %v", err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatalf("v2 fixture no longer decodes: %v", err)
	}
	if m.m != 2 || m.k != 2 || m.dim != 32 {
		t.Fatalf("fixture metadata drifted: m=%d k=%d dim=%d, want 2/2/32", m.m, m.k, m.dim)
	}
	p := m.Profile()
	if p == nil {
		t.Fatal("v2 fixture must carry a monitoring profile")
	}
	if err := p.Validate(); err != nil {
		t.Fatalf("persisted profile invalid: %v", err)
	}
	if p.Dim() != m.dim || p.Bins != profileBins {
		t.Fatalf("profile shape drifted: dim=%d bins=%d", p.Dim(), p.Bins)
	}
	if want := float64(m.k) / float64(m.m+m.k); p.NormalPrior != want {
		t.Fatalf("profile normal prior %v, want %v", p.NormalPrior, want)
	}
	for _, s := range OODStrategies() {
		if _, ok := m.IdentifyThreshold(s); ok {
			if _, ok := p.Mix[int(s)]; !ok {
				t.Fatalf("calibrated strategy %s has no reference decision mix", s)
			}
		}
	}
	got, err := m.Score(context.Background(), fixtureInput(m.dim))
	if err != nil {
		t.Fatal(err)
	}
	want := readPinnedScoresFrom(t, fixtureScoresV2)
	if len(got) != len(want) {
		t.Fatalf("%d scores, pinned %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("score %d drifted from pinned value: %v vs %v", i, got[i], want[i])
		}
	}
}

// TestSaveWritesV2WithProfile: a fresh Fit captures a profile (the v2
// addition), Save writes the current format v3, and the profile
// survives the round trip intact.
func TestSaveWritesV2WithProfile(t *testing.T) {
	b := testBundle(t, 11)
	m := New(testConfig(), 11)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	p := m.Profile()
	if p == nil {
		t.Fatal("Fit must capture a monitoring profile")
	}
	if p.Rows != b.Train.Unlabeled.Rows {
		t.Fatalf("profile rows %d, want unlabeled pool %d", p.Rows, b.Train.Unlabeled.Rows)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	// The envelope must say v3: the v2 profile field, plus the
	// strategy-sorted threshold and mix lists.
	dec := gob.NewDecoder(bytes.NewReader(buf.Bytes()))
	var h envelope
	if err := dec.Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Version != 3 {
		t.Fatalf("saved envelope version %d, want 3", h.Version)
	}
	loaded, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	lp := loaded.Profile()
	if lp == nil {
		t.Fatal("profile lost in round trip")
	}
	if lp.Rows != p.Rows || lp.Bins != p.Bins || lp.Dim() != p.Dim() || lp.NormalPrior != p.NormalPrior {
		t.Fatal("profile metadata changed in round trip")
	}
	for j := range p.Feature {
		for i := range p.Feature[j] {
			if lp.Feature[j][i] != p.Feature[j][i] {
				t.Fatalf("feature %d bin %d changed in round trip", j, i)
			}
		}
	}
	for i := range p.Score {
		if lp.Score[i] != p.Score[i] {
			t.Fatalf("score bin %d changed in round trip", i)
		}
	}
	for strat, mix := range p.Mix {
		if lp.Mix[strat] != mix {
			t.Fatalf("strategy %d mix changed in round trip", strat)
		}
	}
}

// TestLoadDropsCorruptProfile: a v2 payload whose profile fails
// validation still loads — scoring never depends on monitoring — with
// the bad profile dropped.
func TestLoadDropsCorruptProfile(t *testing.T) {
	raw, err := os.ReadFile(fixtureModelV2)
	if err != nil {
		t.Skip("v2 fixture not committed yet")
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	s := savedModel{
		M: m.m, K: m.k, Dim: m.dim,
		ClfHidden:  m.cfg.ClfHidden,
		Thresholds: map[int]float64{int(MSP): 0.5},
		Params:     snapshotParams(m.clf),
		Profile:    &monitor.Profile{Rows: 1, Bins: 0}, // fails Validate
	}
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, kindModel, modelFormatVersion, &s); err != nil {
		t.Fatal(err)
	}
	got, err := Load(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("corrupt profile must not fail the load: %v", err)
	}
	if got.Profile() != nil {
		t.Fatal("corrupt profile must be dropped")
	}
}

func TestLoadRejectsUnknownVersion(t *testing.T) {
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, kindModel, 99, &savedModel{M: 1, K: 1, Dim: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if !errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("version 99 must be rejected with ErrUnknownVersion, got %v", err)
	}
}

func TestLoadRejectsWrongMagic(t *testing.T) {
	var buf bytes.Buffer
	enc := gob.NewEncoder(&buf)
	if err := enc.Encode(envelope{Magic: "NOTTARGAD", Kind: kindModel, Version: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("wrong magic must be rejected with ErrBadFormat, got %v", err)
	}
}

func TestLoadRejectsWrongKind(t *testing.T) {
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, kindCheckpoint, 1, &checkpointFile{}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("a checkpoint stream handed to Load must fail with ErrBadFormat, got %v", err)
	}
}

// trainFixtureModel trains the small deterministic model both fixture
// writers pin against.
func trainFixtureModel(t *testing.T) *Model {
	t.Helper()
	b := testBundle(t, 7)
	m := New(testConfig(), 7)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	return m
}

// pinFixture writes the model bytes and its pinned scores.
func pinFixture(t *testing.T, m *Model, raw []byte, modelPath, scoresPath string) {
	t.Helper()
	if err := os.MkdirAll(filepath.Dir(modelPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(modelPath, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	scores, err := m.Score(context.Background(), fixtureInput(m.dim))
	if err != nil {
		t.Fatal(err)
	}
	var sb bytes.Buffer
	for _, s := range scores {
		sb.WriteString(strconv.FormatFloat(s, 'g', -1, 64))
		sb.WriteByte('\n')
	}
	if err := os.WriteFile(scoresPath, sb.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	t.Logf("re-pinned %s and %s", modelPath, scoresPath)
}

// writeModelFixture re-pins the v1 fixture. Save now writes format v3,
// so this writer builds the payload by hand — profile stripped,
// envelope pinned at version 1 — to keep the committed file genuinely
// v1 rather than silently upgrading it.
func writeModelFixture(t *testing.T) {
	t.Helper()
	m := trainFixtureModel(t)
	pinFixture(t, m, legacySave(t, m, 1, nil), fixtureModel, fixtureScores)
}

// writeModelFixtureV2 re-pins the v2 fixture, built by hand like the v1
// one: thresholds as a map and the profile (decision mix included)
// inline, envelope pinned at version 2.
func writeModelFixtureV2(t *testing.T) {
	t.Helper()
	m := trainFixtureModel(t)
	if m.Profile() == nil {
		t.Fatal("fixture fit captured no profile; v2 fixture would be pointless")
	}
	pinFixture(t, m, legacySave(t, m, 2, m.Profile()), fixtureModelV2, fixtureScoresV2)
}

// legacySave encodes m in the map-based v1/v2 payload layout.
func legacySave(t *testing.T, m *Model, version int, profile *monitor.Profile) []byte {
	t.Helper()
	hidden := m.cfg.ClfHidden
	if len(hidden) == 0 {
		hidden = defaultClfHidden(m.dim)
	}
	s := savedModel{
		M:          m.m,
		K:          m.k,
		Dim:        m.dim,
		ClfHidden:  hidden,
		Thresholds: make(map[int]float64, len(m.idThreshold)),
		Params:     snapshotParams(m.clf),
		Profile:    profile,
	}
	for strat, thr := range m.idThreshold {
		s.Thresholds[int(strat)] = thr
	}
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, kindModel, version, &s); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readPinnedScores(t *testing.T) []float64 {
	t.Helper()
	return readPinnedScoresFrom(t, fixtureScores)
}

func readPinnedScoresFrom(t *testing.T, path string) []float64 {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatalf("missing pinned scores (regenerate with TARGAD_WRITE_FIXTURES=1): %v", err)
	}
	defer f.Close()
	var out []float64
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		v, err := strconv.ParseFloat(sc.Text(), 64)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, v)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}
