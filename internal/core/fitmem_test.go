package core

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"targad/internal/dataset"
	"targad/internal/dataset/synth"
	"targad/internal/faultinject"
	"targad/internal/mat"
	"targad/internal/parallel"
)

// Fit working-memory pins: the saved bytes of a fixed fit, checkpoint
// compatibility across format versions, and the classifier's
// post-Fit footprint.

// goldenFitBundle is the small fixed training set the golden and
// checkpoint pins fit on. Its pool (about 600 rows) spans several
// AEBatch and ClfBatch chunks of goldenFitConfig, remainders included.
func goldenFitBundle(t *testing.T, spec synth.Profile) *dataset.Bundle {
	t.Helper()
	b, err := synth.Generate(spec, synth.Options{Scale: 0.01, Seed: 5, LabeledPerType: 10})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// goldenFitConfig runs the elbow method, uses small batches and
// selects about 90 candidates, so every batch loop and whole-set pass
// of Fit runs several chunks with a short last one.
func goldenFitConfig() Config {
	cfg := DefaultConfig()
	cfg.Alpha = 0.15
	cfg.AEEpochs = 2
	cfg.ClfEpochs = 3
	cfg.AELR = 1e-3
	cfg.ClfLR = 1e-3
	cfg.AEBatch = 48
	cfg.ClfBatch = 40
	return cfg
}

// savedBytesGolden holds the SHA-256 of Save after the golden fit on
// each profile; the "+val" entry fits with goldenValSplit, which drives best-epoch selection and the identification
// thresholds' validation pass. A change that alters any saved byte —
// parameters, thresholds, the monitoring profile — fails here and must
// say why.
var savedBytesGolden = map[string]string{
	"KDDCUP99":     "a3a1f6815a856a002c699e256211876fdc528d0ecab2480fe90973d912357bd2",
	"UNSW-NB15":    "cb50e78a079da8ddbee63c71e9b3864221b26915bfa7e7e2dee41118a44865df",
	"KDDCUP99+val": "aa9222a64ccde3b94598b84ecac452b93f80f4cd60ee6113e0b0f61e63f39943",
}

func goldenSave(t *testing.T, b *dataset.Bundle, cfg Config) []byte {
	t.Helper()
	m := New(cfg, 11)
	if err := m.Fit(context.Background(), b.Train); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.Save(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// goldenValSplit is the validation split of the "+val" golden fit: the
// profile's validation split at three times the golden scale (the
// golden bundle's own has too few anomalies), about 440 rows, so the
// validation pass runs many ClfBatch chunks with a short last one. It
// fails unless the split passes both support gates of that pass
// (tuneIdentifyOnValidation): at least 5 target and 5 non-target rows.
func goldenValSplit(t *testing.T, spec synth.Profile) *dataset.EvalSet {
	t.Helper()
	b, err := synth.Generate(spec, synth.Options{Scale: 0.03, Seed: 5, LabeledPerType: 10})
	if err != nil {
		t.Fatal(err)
	}
	v := b.Val
	var nT, nNT int
	for _, k := range v.Kind {
		switch k {
		case dataset.KindTarget:
			nT++
		case dataset.KindNonTarget:
			nNT++
		}
	}
	if nT < 5 || nNT < 5 {
		t.Fatalf("validation split has %d targets and %d non-targets, want >= 5 of each", nT, nNT)
	}
	return v
}

// TestFitSavedBytesGolden pins the saved model of a fixed fit, on the
// kernels selected at init and on the portable Go kernels, at one and
// four workers. The digests are amd64 values: other architectures may
// contract multiply-adds in the math library and round differently.
func TestFitSavedBytesGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("golden digests are recorded on amd64")
	}
	for _, c := range []struct {
		spec synth.Profile
		val  bool
	}{{synth.KDDCUP99(), false}, {synth.UNSWNB15(), false}, {synth.KDDCUP99(), true}} {
		b := goldenFitBundle(t, c.spec)
		cfg, name := goldenFitConfig(), c.spec.Name
		if c.val {
			cfg.Validation, name = goldenValSplit(t, c.spec), name+"+val"
		}
		for _, kernels := range []string{"active", "portable"} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/%s/workers=%d", name, kernels, workers), func(t *testing.T) {
					if kernels == "portable" {
						defer mat.UsePortableKernels()()
					}
					defer parallel.SetWorkers(parallel.SetWorkers(workers))
					sum := sha256.Sum256(goldenSave(t, b, cfg))
					if got, want := hex.EncodeToString(sum[:]), savedBytesGolden[name]; got != want {
						t.Fatalf("saved model digest %s, want %s (kernel %s)", got, want, mat.KernelName())
					}
				})
			}
		}
	}
}

// Format-v1 checkpoints, written by a build whose checkpoints also
// carried every finished autoencoder's parameters: one interrupted in
// the autoencoder stage (clustering and one cluster done), one in the
// classifier stage. Regenerate (only with a build that writes v1):
//
//	TARGAD_WRITE_FIXTURES=1 go test ./internal/core -run TestCheckpointV1Resumes
var checkpointV1Fixtures = []struct {
	path string
	// interrupt arms the interruption the fixture was written under.
	interrupt func(cfg *Config) (context.Context, func())
}{
	{"testdata/checkpoint_v1_ae.gob", func(*Config) (context.Context, func()) {
		faultinject.ArmAfter(faultinject.CheckpointWrite, 2, 1)
		return context.Background(), faultinject.Reset
	}},
	{"testdata/checkpoint_v1_clf.gob", func(cfg *Config) (context.Context, func()) {
		ctx, cancel := context.WithCancel(context.Background())
		cfg.EpochHook = func(epoch int, _ *Model) {
			if epoch == 1 {
				cancel()
			}
		}
		return ctx, cancel
	}},
}

// checkpointFixtureConfig is goldenFitConfig with k fixed, so the
// checkpoint carries a known number of clusters.
func checkpointFixtureConfig() Config {
	cfg := goldenFitConfig()
	cfg.K = 2
	return cfg
}

// TestCheckpointV1Resumes resumes each committed v1 checkpoint and
// requires the saved model of an uninterrupted fit, byte for byte.
func TestCheckpointV1Resumes(t *testing.T) {
	b := goldenFitBundle(t, synth.KDDCUP99())
	want := goldenSave(t, b, checkpointFixtureConfig())
	for _, fx := range checkpointV1Fixtures {
		t.Run(filepath.Base(fx.path), func(t *testing.T) {
			if os.Getenv("TARGAD_WRITE_FIXTURES") != "" {
				writeCheckpointFixture(t, b, fx.path, fx.interrupt)
			}
			raw, err := os.ReadFile(fx.path)
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), "fit.ckpt")
			if err := os.WriteFile(path, raw, 0o644); err != nil {
				t.Fatal(err)
			}
			cfg := checkpointFixtureConfig()
			cfg.Checkpoint = CheckpointConfig{Path: path}
			got := goldenSave(t, b, cfg)
			if !bytes.Equal(got, want) {
				t.Fatal("resumed model saves differently from an uninterrupted fit")
			}
			if _, err := os.Stat(path); !errors.Is(err, os.ErrNotExist) {
				t.Fatalf("checkpoint must be removed after the resumed fit, stat: %v", err)
			}
		})
	}
}

// writeCheckpointFixture runs the fixture's interrupted fit and keeps
// the checkpoint it leaves behind.
func writeCheckpointFixture(t *testing.T, b *dataset.Bundle, path string, interrupt func(*Config) (context.Context, func())) {
	t.Helper()
	os.Remove(path)
	cfg := checkpointFixtureConfig()
	cfg.Checkpoint = CheckpointConfig{Path: path}
	ctx, done := interrupt(&cfg)
	err := New(cfg, 11).Fit(ctx, b.Train)
	done()
	if err == nil {
		t.Fatal("fixture fit was not interrupted")
	}
	t.Logf("re-pinned %s after: %v", path, err)
}

// TestFitClassifierHoldsNoPool checks what a trained model's
// classifier keeps after Fit: no matrix held by any layer — inputs
// kept for the backward pass, forward and backward workspaces — shares
// train.Unlabeled's backing array, and none has room for more than
// ClfBatch rows. The "+val" case also runs the per-epoch validation
// AUPRC and the threshold tuning over a split of about 440 rows, then
// Scores the test split: scoring runs on replicas, never on the
// classifier Fit trains.
func TestFitClassifierHoldsNoPool(t *testing.T) {
	for _, val := range []bool{false, true} {
		t.Run(fmt.Sprintf("val=%v", val), func(t *testing.T) {
			b := goldenFitBundle(t, synth.KDDCUP99())
			cfg := goldenFitConfig()
			if val {
				cfg.Validation = goldenValSplit(t, synth.KDDCUP99())
			}
			m := New(cfg, 11)
			if err := m.Fit(context.Background(), b.Train); err != nil {
				t.Fatal(err)
			}
			if val {
				if _, err := m.Score(context.Background(), b.Test.X); err != nil {
					t.Fatal(err)
				}
			}
			checkClassifierHoldsNoPool(t, m, b.Train.Unlabeled, cfg.ClfBatch)
		})
	}
}

func checkClassifierHoldsNoPool(t *testing.T, m *Model, unlabeled *mat.Matrix, clfBatch int) {
	t.Helper()
	pool := reflect.ValueOf(unlabeled.Data)
	poolLo := pool.Pointer()
	poolHi := poolLo + uintptr(pool.Cap())*8
	matrixType := reflect.TypeOf((*mat.Matrix)(nil))
	var seen int
	for li, l := range m.clf.Layers {
		v := reflect.ValueOf(l).Elem()
		for f := 0; f < v.NumField(); f++ {
			fv := v.Field(f)
			if fv.Type() != matrixType || fv.IsNil() {
				continue
			}
			seen++
			name := fmt.Sprintf("layer %d (%T) field %s", li, l, v.Type().Field(f).Name)
			data := fv.Elem().FieldByName("Data")
			cols := int(fv.Elem().FieldByName("Cols").Int())
			if p := data.Pointer(); data.Cap() > 0 && p >= poolLo && p < poolHi {
				t.Errorf("%s references the unlabeled pool", name)
			}
			if cols > 0 && data.Cap() > clfBatch*cols {
				t.Errorf("%s holds room for %d rows, over ClfBatch %d", name, data.Cap()/cols, clfBatch)
			}
		}
	}
	if seen == 0 {
		t.Fatal("found no layer matrices to check")
	}
}
