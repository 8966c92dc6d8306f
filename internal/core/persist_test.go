package core

import (
	"bytes"
	"context"
	"errors"
	"testing"
)

func TestSaveLoadRoundTrip(t *testing.T) {
	b := testBundle(t, 10)
	m := New(testConfig(), 1)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	want, err := m.Score(context.Background(), b.Test.X)
	if err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := Load(&buf)
	if err != nil {
		t.Fatal(err)
	}
	got, err := loaded.Score(context.Background(), b.Test.X)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("score %d differs after reload: %v vs %v", i, want[i], got[i])
		}
	}
	// Identification thresholds survive too.
	for _, s := range OODStrategies() {
		wantThr, ok1 := m.IdentifyThreshold(s)
		gotThr, ok2 := loaded.IdentifyThreshold(s)
		if !ok1 || !ok2 || wantThr != gotThr {
			t.Fatalf("threshold %s lost in round trip: %v/%v %v/%v", s, wantThr, ok1, gotThr, ok2)
		}
	}
	wantKinds, err := m.Identify(b.Test.X, ED)
	if err != nil {
		t.Fatal(err)
	}
	gotKinds, err := loaded.Identify(b.Test.X, ED)
	if err != nil {
		t.Fatal(err)
	}
	for i := range wantKinds {
		if wantKinds[i] != gotKinds[i] {
			t.Fatalf("identification %d differs after reload", i)
		}
	}
}

// TestSaveByteDeterministic: saving one model repeatedly yields the
// same bytes, and so does saving the model Load rebuilt from them. The
// thresholds and the profile's decision mix are maps in memory, so a
// map-ordered encoding would differ between saves.
func TestSaveByteDeterministic(t *testing.T) {
	b := testBundle(t, 12)
	m := New(testConfig(), 12)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	if len(m.idThreshold) < 2 || m.profile == nil || len(m.profile.Mix) < 2 {
		t.Fatalf("fit must yield several thresholds and mix entries (got %d, profile %v)", len(m.idThreshold), m.profile != nil)
	}
	save := func(m *Model) []byte {
		t.Helper()
		var buf bytes.Buffer
		if err := m.Save(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	first := save(m)
	for i := 0; i < 20; i++ {
		if !bytes.Equal(save(m), first) {
			t.Fatalf("save %d differs from the first", i+1)
		}
	}
	loaded, err := Load(bytes.NewReader(first))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(save(loaded), first) {
		t.Fatal("re-saving a loaded model changed its bytes")
	}
}

func TestSaveUnfittedErrors(t *testing.T) {
	m := New(testConfig(), 1)
	var buf bytes.Buffer
	if err := m.Save(&buf); err == nil {
		t.Fatal("saving unfitted model must error")
	}
}

func TestLoadGarbageErrors(t *testing.T) {
	if _, err := Load(bytes.NewReader([]byte("not a gob"))); err == nil {
		t.Fatal("loading garbage must error")
	}
}

// validSaveBytes returns a well-formed model save stream without
// training: envelope plus a minimal hand-built payload.
func validSaveBytes(t *testing.T) []byte {
	t.Helper()
	s := savedModel{
		M: 1, K: 1, Dim: 2,
		ClfHidden:  []int{3},
		Thresholds: map[int]float64{int(MSP): 0.5},
		Params: [][]float64{
			make([]float64, 2*3), make([]float64, 3), // dense 2x3
			make([]float64, 3*2), make([]float64, 2), // dense 3x2
		},
	}
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, kindModel, modelFormatVersion, &s); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(bytes.NewReader(buf.Bytes())); err != nil {
		t.Fatalf("hand-built save must load cleanly: %v", err)
	}
	return buf.Bytes()
}

// TestLoadTruncatedStream feeds Load every strict prefix of a valid
// save file: a stream cut mid-gob — inside the header or inside the
// payload — must surface ErrBadFormat and must never panic.
func TestLoadTruncatedStream(t *testing.T) {
	raw := validSaveBytes(t)
	for n := 0; n < len(raw); n++ {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("Load panicked on %d/%d-byte prefix: %v", n, len(raw), r)
				}
			}()
			_, err := Load(bytes.NewReader(raw[:n]))
			if err == nil {
				t.Fatalf("Load accepted a %d/%d-byte prefix", n, len(raw))
			}
			if !errors.Is(err, ErrBadFormat) {
				t.Fatalf("%d-byte prefix: error is not ErrBadFormat: %v", n, err)
			}
		}()
	}
}

// TestLoadWrongKindTyped: a checkpoint stream handed to Load is "not a
// model file" — ErrBadFormat, not a gob mismatch deep in the payload.
func TestLoadWrongKindTyped(t *testing.T) {
	var buf bytes.Buffer
	if err := writeEnvelope(&buf, kindCheckpoint, checkpointFormatVersion, &checkpointFile{}); err != nil {
		t.Fatal(err)
	}
	_, err := Load(&buf)
	if !errors.Is(err, ErrBadFormat) {
		t.Fatalf("wrong kind must surface ErrBadFormat, got %v", err)
	}
	if errors.Is(err, ErrUnknownVersion) {
		t.Fatalf("wrong kind must not read as a version problem: %v", err)
	}
}

// TestLoadOversizedVersion: version numbers far beyond what this build
// writes — a file from the future — fail with ErrUnknownVersion.
func TestLoadOversizedVersion(t *testing.T) {
	for _, v := range []int{modelFormatVersion + 1, 1 << 30, -3, 0} {
		var buf bytes.Buffer
		if err := writeEnvelope(&buf, kindModel, v, &savedModel{M: 1, K: 1, Dim: 1}); err != nil {
			t.Fatal(err)
		}
		_, err := Load(&buf)
		if v >= 1 {
			if !errors.Is(err, ErrUnknownVersion) {
				t.Fatalf("version %d must surface ErrUnknownVersion, got %v", v, err)
			}
		} else if err == nil {
			t.Fatalf("version %d must be rejected", v)
		}
	}
}

// TestLoadCorruptPayloadMetadata: a structurally valid gob whose
// metadata is nonsense must fail the validation, never build a model.
func TestLoadCorruptPayloadMetadata(t *testing.T) {
	cases := []savedModel{
		{M: 0, K: 1, Dim: 1},
		{M: 1, K: -2, Dim: 4},
		{M: 1, K: 1, Dim: 0},
		{M: 1, K: 1, Dim: 2, ClfHidden: []int{3}, Params: [][]float64{{1}}},                                         // wrong tensor count
		{M: 1, K: 1, Dim: 2, ClfHidden: []int{3}, Params: [][]float64{{1}, {1}, {1}, {1}}},                          // wrong tensor sizes
		{M: 1, K: 1, Dim: 2, ClfHidden: []int{0}, Params: [][]float64{make([]float64, 6), {1, 1, 1}, {1, 1}, {1}}},  // zero hidden width
		{M: 1, K: 1, Dim: 2, ClfHidden: []int{-4}, Params: [][]float64{make([]float64, 6), {1, 1, 1}, {1, 1}, {1}}}, // negative hidden width
	}
	for i, s := range cases {
		var buf bytes.Buffer
		if err := writeEnvelope(&buf, kindModel, modelFormatVersion, &s); err != nil {
			t.Fatal(err)
		}
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("case %d: Load panicked: %v", i, r)
				}
			}()
			if _, err := Load(&buf); err == nil {
				t.Fatalf("case %d: corrupt metadata must not load", i)
			}
		}()
	}
}
