package retrain

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/faultinject"
	"targad/internal/feedback"
	"targad/internal/serve"
)

// promoteControl is a Control whose shadow has always scored enough
// rows with no change, so a cycle that reaches the gate promotes.
type promoteControl struct{ stubControl }

func (promoteControl) ShadowModel(*core.Model, string) (int64, error) { return 1, nil }
func (promoteControl) ShadowStats() (serve.ShadowReport, bool) {
	return serve.ShadowReport{ID: 1, Rows: 1 << 20}, true
}
func (promoteControl) PromoteShadow(int64) (int64, error) { return 2, nil }
func (promoteControl) DiscardShadow(int64) error          { return nil }

// TestFitSlotCoversLoad checks that a cycle queued on the fit slot has
// not loaded its base set: Train runs only once the slot is free, and
// the cycle gives the slot back when it ends.
func TestFitSlotCoversLoad(t *testing.T) {
	store, err := feedback.Open(t.TempDir(), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Append(feedback.Record{Features: []float64{1, 2, 3}, Verdict: feedback.VerdictBenign}); err != nil {
		t.Fatal(err)
	}

	slot := make(chan struct{}, 1)
	slot <- struct{}{} // another tenant's fit holds the slot
	var loads atomic.Int64
	done := make(chan Result, 1)
	o, err := New(stubControl{}, Config{
		Store: store,
		Train: func() (*dataset.TrainSet, error) {
			loads.Add(1)
			return nil, errors.New("base set unavailable")
		},
		FitSlot: slot,
		OnDone:  func(r Result) { done <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	if err := o.Trigger("test"); err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	time.Sleep(50 * time.Millisecond)
	if n := loads.Load(); n != 0 {
		t.Fatalf("Train called %d times while the fit slot was held, want 0", n)
	}
	<-slot // the other tenant's fit ends
	res := <-done
	if loads.Load() != 1 || res.Outcome != "fit-error" {
		t.Fatalf("after the slot freed: %d Train calls, outcome %q (%s); want 1 call and fit-error from the Train stub",
			loads.Load(), res.Outcome, res.Err)
	}
	if len(slot) != 0 {
		t.Fatal("the cycle kept the fit slot after it ended")
	}
}

// TestReleaseMemoryOncePerFit counts the heap hand-backs: exactly one
// per cycle whose Fit ran, whatever the Fit's outcome, and none for a
// cycle that stopped before fitting.
func TestReleaseMemoryOncePerFit(t *testing.T) {
	defer faultinject.Reset()
	var releases atomic.Int64
	defer func(prev func()) { releaseMemory = prev }(releaseMemory)
	releaseMemory = func() { releases.Add(1) }

	b := testBundle(t)
	row := append([]float64(nil), b.Train.Unlabeled.Row(0)...)
	load := func(*Orchestrator) (*dataset.TrainSet, error) { return b.Train, nil }
	long := quickCfg()
	long.AEEpochs = 1 << 20

	for _, tc := range []struct {
		name     string
		verdict  []float64                                        // features of the one stored verdict; nil stores none
		train    func(o *Orchestrator) (*dataset.TrainSet, error) // nil loads the bundle
		fit      core.Config
		poison   bool // every autoencoder batch is NaN, so Fit fails
		outcome  string
		releases int64
	}{
		{name: "promoted", verdict: row, fit: quickCfg(), outcome: "promoted", releases: 1},
		{name: "fit error", verdict: row, fit: quickCfg(), poison: true, outcome: "fit-error", releases: 1},
		{name: "canceled mid-Fit", verdict: row, fit: long, outcome: "canceled", releases: 1,
			train: func(o *Orchestrator) (*dataset.TrainSet, error) {
				time.AfterFunc(20*time.Millisecond, o.cancel)
				return b.Train, nil
			}},
		{name: "no verdicts", fit: quickCfg(), outcome: "no-verdicts"},
		{name: "train error", verdict: row, fit: quickCfg(), outcome: "fit-error",
			train: func(*Orchestrator) (*dataset.TrainSet, error) {
				return nil, errors.New("base set unavailable")
			}},
		{name: "merge error", verdict: []float64{1, 2, 3}, fit: quickCfg(), outcome: "fit-error"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			store, err := feedback.Open(t.TempDir(), feedback.Config{})
			if err != nil {
				t.Fatal(err)
			}
			defer store.Close()
			if tc.verdict != nil {
				if _, err := store.Append(feedback.Record{Features: tc.verdict, Verdict: feedback.VerdictBenign}); err != nil {
					t.Fatal(err)
				}
			}
			train := tc.train
			if train == nil {
				train = load
			}
			var o *Orchestrator
			o, err = New(promoteControl{}, Config{
				Store: store,
				Train: func() (*dataset.TrainSet, error) { return train(o) },
				Fit:   tc.fit,
				Seed:  1,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer o.Close()
			if tc.poison {
				faultinject.Arm(faultinject.AEBatchNaN, -1)
				defer faultinject.Reset()
			}

			releases.Store(0)
			o.runCycle("test")
			res := o.last
			if res.Outcome != tc.outcome {
				t.Fatalf("outcome %q (%s), want %q", res.Outcome, res.Err, tc.outcome)
			}
			if n := releases.Load(); n != tc.releases {
				t.Fatalf("memory released %d times, want %d", n, tc.releases)
			}
		})
	}
}

// installControl is a promoteControl that installs what it promotes:
// CurrentModel answers the last promoted shadow.
type installControl struct {
	promoteControl
	cur, shadow *core.Model
}

func (c *installControl) CurrentModel() *core.Model { return c.cur }
func (c *installControl) ShadowModel(m *core.Model, _ string) (int64, error) {
	c.shadow = m
	return 1, nil
}
func (c *installControl) PromoteShadow(int64) (int64, error) {
	c.cur, c.shadow = c.shadow, nil
	return 2, nil
}

// TestPromotedModelIsItsSavedForm pins what a promoted cycle serves:
// exactly what the promoted file loads. The served model re-saves to
// the file's bytes, scores like core.Load of it bit for bit, and
// carries none of Fit's candidate-selection state.
func TestPromotedModelIsItsSavedForm(t *testing.T) {
	dir := t.TempDir()
	b := testBundle(t)
	basePath := filepath.Join(dir, "base.gob")
	fitAndSave(t, quickCfg(), 7, b.Train, basePath)
	base, err := os.ReadFile(basePath)
	if err != nil {
		t.Fatal(err)
	}
	cur, err := core.Load(bytes.NewReader(base))
	if err != nil {
		t.Fatal(err)
	}

	store, err := feedback.Open(filepath.Join(dir, "feedback"), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.Append(feedback.Record{
		Features: append([]float64(nil), b.Test.X.Row(0)...),
		Verdict:  feedback.VerdictBenign,
	}); err != nil {
		t.Fatal(err)
	}
	ctrl := &installControl{cur: cur}
	promotedPath := filepath.Join(dir, "promoted.gob")
	o, err := New(ctrl, Config{
		Store:    store,
		Train:    func() (*dataset.TrainSet, error) { return b.Train, nil },
		Fit:      quickCfg(),
		Seed:     99,
		SavePath: promotedPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()
	o.runCycle("test")
	if res := o.last; res.Outcome != "promoted" || res.Err != "" {
		t.Fatalf("outcome %q (%s), want promoted", res.Outcome, res.Err)
	}
	served := ctrl.CurrentModel()
	if served == cur {
		t.Fatal("the promoted candidate is not serving")
	}

	file, err := os.ReadFile(promotedPath)
	if err != nil {
		t.Fatal(err)
	}
	var resaved bytes.Buffer
	if err := served.Save(&resaved); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(resaved.Bytes(), file) {
		t.Fatal("the served model does not re-save to the promoted file's bytes")
	}
	loaded, err := core.Load(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	opt := core.InferOptions{Strategies: core.OODStrategies()}
	want, err := loaded.Infer(context.Background(), b.Test.X, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, err := served.Infer(context.Background(), b.Test.X, opt)
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Scores {
		if got.Scores[i] != want.Scores[i] {
			t.Fatalf("row %d: served score %v, loaded file %v", i, got.Scores[i], want.Scores[i])
		}
	}
	for s, kinds := range want.Kinds {
		for i := range kinds {
			if got.Kinds[s][i] != kinds[i] {
				t.Fatalf("row %d: served %s decision %v, loaded file %v", i, s, got.Kinds[s][i], kinds[i])
			}
		}
	}
	if served.ReconstructionErrors() != nil || served.CandidateIndices() != nil || served.FinalWeights() != nil {
		t.Fatal("the served model carries Fit's candidate-selection state")
	}
}
