package registry

import (
	"fmt"

	"targad/internal/activelearn"
	"targad/internal/dataset"
	"targad/internal/feedback"
	"targad/internal/retrain"
	"targad/internal/serve"
)

// Stack is one model's complete serving stack: the server plus the
// verdict store and retrain orchestrator armed around it. Single-model
// targad-serve runs one; every registry entry embeds one. Build with
// OpenStack, tear down with Close.
type Stack struct {
	Server *serve.Server
	store  *feedback.Store       // nil: no feedback directory
	orch   *retrain.Orchestrator // nil: retraining not armed
}

// OpenStack builds the serving stack for the model spec names, on the
// serve.Config template base (ModelPath, Feedback and Acquire are
// filled here, the spec's strategy and precision override the
// template's). One set of arming rules (DESIGN.md §14):
//
//   - the verdict store opens at feedbackDir when it is non-empty and
//     mounts POST /feedback;
//   - an acquisition queue of acquireBudget rows arms when the budget is
//     positive and mounts GET /feedback/queue; with a store, rows that
//     already carry a verdict are filtered out of it;
//   - a retrain orchestrator arms when there is a store, the spec names
//     both retraining CSVs, and rt is non-nil. rt is a template: Store,
//     Train and SavePath are filled here, so a promoted candidate
//     overwrites spec.Path and a reload or restart serves it.
//
// When a step fails, whatever was already built is closed.
func OpenStack(base serve.Config, spec ModelSpec, feedbackDir string, acquireBudget int, rt *retrain.Config) (*Stack, error) {
	scfg := base
	scfg.ModelPath = spec.Path
	if spec.hasStrat {
		scfg.Strategy = spec.strat
	}
	if spec.hasPrecision {
		scfg.Precision = spec.precision
	}

	st := &Stack{}
	if feedbackDir != "" {
		store, err := feedback.Open(feedbackDir, feedback.Config{})
		if err != nil {
			return nil, fmt.Errorf("feedback store: %w", err)
		}
		st.store = store
		scfg.Feedback = store
	}
	if acquireBudget > 0 {
		qc := activelearn.Config{Budget: acquireBudget}
		if st.store != nil {
			qc.Labeled = st.store.Has
		}
		scfg.Acquire = activelearn.New(qc)
	}

	srv, err := serve.New(scfg)
	if err != nil {
		st.Close()
		return nil, err
	}
	st.Server = srv

	if rt != nil && st.store != nil && spec.RetrainLabeled != "" && spec.RetrainUnlabeled != "" {
		rc := *rt
		rc.Store = st.store
		labeled, unlabeled, header := spec.RetrainLabeled, spec.RetrainUnlabeled, spec.RetrainCSVHeader
		rc.Train = func() (*dataset.TrainSet, error) { return dataset.LoadTrainCSVs(labeled, unlabeled, header) }
		rc.SavePath = spec.Path
		orch, err := retrain.New(srv, rc)
		if err != nil {
			st.Close()
			return nil, fmt.Errorf("retrain: %w", err)
		}
		st.orch = orch
		srv.SetRetrain(orch)
	}
	return st, nil
}

// Close tears the stack down in dependency order: the orchestrator
// (which drives the server), the server, then the store it writes to.
func (st *Stack) Close() {
	if st.orch != nil {
		st.orch.Close()
	}
	if st.Server != nil {
		st.Server.Close()
	}
	if st.store != nil {
		st.store.Close()
	}
}
