// Package experiments is the benchmark harness: one entry point per
// table and figure of the paper's evaluation section (Table I–IV,
// Fig. 3–7), each regenerating the same rows/series the paper reports
// on the synthetic dataset substitutes.
package experiments

import (
	"targad/internal/core"
	"targad/internal/dataset/synth"
)

// RunConfig controls the cost/fidelity trade-off of every experiment.
type RunConfig struct {
	// Scale multiplies Table I's split sizes (1.0 = paper scale).
	Scale float64
	// Runs is the number of independent repetitions aggregated into
	// mean ± std (paper: 5).
	Runs int
	// Seed is the base seed: run i fits its detector with seed
	// Seed+7919·i and generates its dataset with seed Seed+1000003·i.
	Seed int64

	// AEEpochs / ClfEpochs / AELR / ClfLR override TargAD's training
	// schedule. The paper's learning rates (1e-4 / 1e-5) are tuned to
	// full-size data; scaled-down runs need proportionally larger
	// steps to reach the same optimization state.
	AEEpochs  int
	ClfEpochs int
	AELR      float64
	ClfLR     float64

	// LabeledPerType overrides the number of labeled target anomalies
	// per type (0 keeps the profile default scaled by Scale).
	LabeledPerType int

	// ModelFilter, when non-empty, restricts Models and
	// SemiSupervisedModels to the named detectors (TargAD is always
	// retained so comparative experiments keep their subject).
	ModelFilter []string

	// StateDir, when non-empty, makes every grid experiment (Table2,
	// Table3, Fig4a–d, Fig6, Fig7Eta, Fig7Lambda, WeightAblation)
	// resumable: each completed run of a cell is recorded in a JSON
	// state file under this directory, per configuration (every field
	// above except Runs). A rerun computes only the runs not on record
	// under its own configuration. Table1, Table4, Fig3 and Fig5 are
	// not grids and ignore it.
	StateDir string
}

// Fast returns the default harness configuration: ~1/20 of paper
// scale, 3 runs, and learning rates adapted to the reduced step
// budget. Experiments finish in minutes on one CPU core while
// preserving the tables' and figures' shapes.
func Fast() RunConfig {
	return RunConfig{
		Scale:          0.08,
		Runs:           3,
		Seed:           1,
		AEEpochs:       10,
		ClfEpochs:      60,
		AELR:           1e-3,
		ClfLR:          1e-3,
		LabeledPerType: 30,
	}
}

// Full returns the paper-faithful configuration: full Table I sizes,
// 5 runs, and the hyperparameters of Section IV-C. Expect hours of
// wall clock on a small machine.
func Full() RunConfig {
	return RunConfig{
		Scale:     1,
		Runs:      5,
		Seed:      1,
		AEEpochs:  30,
		ClfEpochs: 30,
		AELR:      1e-4,
		ClfLR:     1e-5,
	}
}

// targadConfig builds TargAD's Config under rc with the paper's
// structural defaults.
func (rc RunConfig) targadConfig() core.Config {
	cfg := core.DefaultConfig()
	cfg.AEEpochs = rc.AEEpochs
	cfg.ClfEpochs = rc.ClfEpochs
	cfg.AELR = rc.AELR
	cfg.ClfLR = rc.ClfLR
	cfg.KMax = 6
	return cfg
}

// genOptions builds synth.Options for one run.
func (rc RunConfig) genOptions(run int) synth.Options {
	return synth.Options{
		Scale:          rc.Scale,
		Seed:           rc.Seed + int64(run)*1000003,
		LabeledPerType: rc.LabeledPerType,
	}
}
