package retrain

import (
	"errors"
	"testing"
	"time"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/feedback"
	"targad/internal/serve"
)

// stubControl satisfies Control for tests that never reach the shadow
// stage; the shadow methods answer errors so a cycle that does reach
// them fails loudly instead of hanging.
type stubControl struct{}

func (stubControl) CurrentModel() *core.Model { return nil }
func (stubControl) ShadowModel(*core.Model, string) (int64, error) {
	return 0, errors.New("stub: no shadow")
}
func (stubControl) ShadowStats() (serve.ShadowReport, bool) { return serve.ShadowReport{}, false }
func (stubControl) PromoteShadow(int64) (int64, error)      { return 0, errors.New("stub") }
func (stubControl) DiscardShadow(int64) error               { return errors.New("stub") }

// TestTriggerFeedbackTTLGate checks the decay contract end to end in
// the orchestrator: a store full of stale verdicts answers
// ErrNoVerdicts when every record is older than FeedbackTTL, and a
// single fresh verdict re-arms the trigger — with the stale ones still
// excluded from the cycle's merge snapshot.
func TestTriggerFeedbackTTLGate(t *testing.T) {
	store, err := feedback.Open(t.TempDir(), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	stale := feedback.Record{
		Features:   []float64{1, 2, 3},
		Verdict:    feedback.VerdictTarget,
		ReceivedAt: time.Now().Add(-2 * time.Hour).UTC(),
	}
	if _, err := store.Append(stale); err != nil {
		t.Fatal(err)
	}

	done := make(chan Result, 1)
	o, err := New(stubControl{}, Config{
		Store:       store,
		Train:       func() (*dataset.TrainSet, error) { return nil, errors.New("base set unavailable") },
		FeedbackTTL: time.Hour,
		OnDone:      func(r Result) { done <- r },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer o.Close()

	if store.Len() != 1 {
		t.Fatalf("store.Len() = %d, want 1", store.Len())
	}
	if err := o.Trigger("test"); !errors.Is(err, ErrNoVerdicts) {
		t.Fatalf("Trigger over a stale-only store: err = %v, want ErrNoVerdicts", err)
	}

	// One fresh verdict (ReceivedAt stamped now by Append) re-arms it.
	if _, err := store.Append(feedback.Record{
		Features: []float64{4, 5, 6},
		Verdict:  feedback.VerdictBenign,
	}); err != nil {
		t.Fatal(err)
	}
	if err := o.Trigger("test"); err != nil {
		t.Fatalf("Trigger with one live verdict: %v", err)
	}
	res := <-done
	if res.Outcome != "fit-error" {
		t.Fatalf("cycle outcome = %q (%s), want fit-error from the Train stub", res.Outcome, res.Err)
	}
	if res.Verdicts != 1 {
		t.Fatalf("cycle merged %d verdicts, want 1 (the stale one must decay out of the snapshot)", res.Verdicts)
	}
}

// TestFitSlotCancelWhileQueued checks the shared fit slot: a cycle
// waiting for an occupied slot parks before calling Fit and unwinds
// with outcome "canceled" when the orchestrator closes — it never
// fits, never shadows.
func TestFitSlotCancelWhileQueued(t *testing.T) {
	store, err := feedback.Open(t.TempDir(), feedback.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()

	b := testBundle(t)
	if _, err := store.Append(feedback.Record{
		Features: append([]float64(nil), b.Train.Unlabeled.Row(0)...),
		Verdict:  feedback.VerdictBenign,
	}); err != nil {
		t.Fatal(err)
	}

	slot := make(chan struct{}, 1)
	slot <- struct{}{} // another tenant holds the slot for the whole test

	done := make(chan Result, 1)
	o, err := New(stubControl{}, Config{
		Store:   store,
		Train:   func() (*dataset.TrainSet, error) { return b.Train, nil },
		Fit:     quickCfg(),
		FitSlot: slot,
		OnDone:  func(r Result) { done <- r },
	})
	if err != nil {
		t.Fatal(err)
	}

	if err := o.Trigger("test"); err != nil {
		t.Fatalf("Trigger: %v", err)
	}
	// Close cancels the context the slot wait selects on; the parked
	// cycle must unwind as canceled without ever acquiring the slot.
	time.Sleep(50 * time.Millisecond)
	o.Close()
	res := <-done
	if res.Outcome != "canceled" {
		t.Fatalf("cycle outcome = %q (%s), want canceled while queued on the fit slot", res.Outcome, res.Err)
	}
	if len(slot) != 1 {
		t.Fatal("the cycle consumed the fit slot it never acquired")
	}
}
