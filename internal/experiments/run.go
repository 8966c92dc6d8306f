package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/dataset/synth"
	"targad/internal/detector"
	"targad/internal/metrics"
)

// Cell is one mean ± std aggregate of a results table. A cell whose
// evaluation failed carries the error text instead of numbers: one
// broken baseline degrades to an "error" entry in its row while the
// rest of the table completes.
type Cell struct {
	Mean, Std float64
	// Err is the failure description when the cell's detector errored
	// or panicked; empty for a successful cell.
	Err string
}

// Failed reports whether the cell records a failure instead of a
// result.
func (c Cell) Failed() bool { return c.Err != "" }

// String renders the cell like the paper's tables ("error" for a
// failed cell — the full reason is in Cell.Err).
func (c Cell) String() string {
	if c.Failed() {
		return "error"
	}
	return fmt.Sprintf("%.3f±%.3f", c.Mean, c.Std)
}

// evalDetector fits a fresh detector and returns its test AUPRC and
// AUROC. A panicking detector is recovered into an error here, so one
// misbehaving baseline cannot take down a whole table run.
func evalDetector(ctx context.Context, f detector.Factory, seed int64, b *dataset.Bundle) (auprc, auroc float64, err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("detector panicked: %v", r)
		}
	}()
	det := f(seed)
	if va, ok := det.(detector.ValidationAware); ok && b.Val != nil {
		va.SetValidation(b.Val)
	}
	if err := det.Fit(ctx, b.Train); err != nil {
		return 0, 0, fmt.Errorf("%s: fit: %w", det.Name(), err)
	}
	scores, err := det.Score(ctx, b.Test.X)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: score: %w", det.Name(), err)
	}
	labels := b.Test.TargetLabels()
	auprc, err = metrics.AUPRC(scores, labels)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: auprc: %w", det.Name(), err)
	}
	auroc, err = metrics.AUROC(scores, labels)
	if err != nil {
		return 0, 0, fmt.Errorf("%s: auroc: %w", det.Name(), err)
	}
	return auprc, auroc, nil
}

// generator builds one run's dataset bundle from the run index.
type generator func(run int) (*dataset.Bundle, error)

// evalCell evaluates the cell named key over runs 0..rc.Runs-1 and
// aggregates them, in run order, into its AUPRC and AUROC cells. A run
// on record in st under rc's configuration is taken from it; any
// other run fits a fresh detector on gen(run) and is recorded.
// resumed counts the runs taken from the store.
//
// Failure model: a detector error or panic ends the cell as error
// cells and a nil error, so the rest of the table keeps going; the
// failed run is not recorded and a rerun retries it. Only harness
// failures (dataset generation, the state write) and context
// cancellation abort, since every remaining cell would fail the same
// way.
func evalCell(ctx context.Context, rc RunConfig, st *State, key string, f detector.Factory, gen generator) (prc, roc Cell, resumed int, err error) {
	config := rc.fingerprint()
	prcs := make([]float64, 0, rc.Runs)
	rocs := make([]float64, 0, rc.Runs)
	for run := 0; run < rc.Runs; run++ {
		rk := runKey(config, key, run)
		r, ok := st.lookup(rk)
		if ok {
			resumed++
		} else {
			if err := ctx.Err(); err != nil {
				return Cell{}, Cell{}, resumed, err
			}
			b, err := gen(run)
			if err != nil {
				return Cell{}, Cell{}, resumed, err
			}
			r.AUPRC, r.AUROC, err = evalDetector(ctx, f, rc.Seed+int64(run)*7919, b)
			if err != nil {
				if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
					return Cell{}, Cell{}, resumed, err
				}
				ec := Cell{Err: err.Error()}
				return ec, ec, resumed, nil
			}
			if err := st.put(rk, r); err != nil {
				return Cell{}, Cell{}, resumed, err
			}
		}
		prcs = append(prcs, r.AUPRC)
		rocs = append(rocs, r.AUROC)
	}
	pm, ps := metrics.MeanStd(prcs)
	rm, rs := metrics.MeanStd(rocs)
	return Cell{Mean: pm, Std: ps}, Cell{Mean: rm, Std: rs}, resumed, nil
}

// Grid is the result of one sweep: the AUPRC and AUROC (mean ± std
// over rc.Runs) of every (row, column) setting. A sweep over one axis
// has a single column labeled "".
type Grid struct {
	Rows, Cols []string
	// AUPRC and AUROC are indexed [row][col].
	AUPRC, AUROC [][]Cell

	layout layout
}

// Render writes the grid in its experiment's layout.
func (g *Grid) Render(w io.Writer) { g.layout(w, g) }

// sweep evaluates every cell of the rows × cols grid in row-major
// order. cell(i, j) gives the detector and the bundle generator of
// row i, column j. Every cell is named name/row/col (name/row in a
// one-column sweep) and its runs go through the state store named
// name, so with rc.StateDir set a rerun resumes the runs already on
// record under the same configuration. progress, when non-nil,
// receives a line per cell, ending in "(resumed)" when every run came
// from the store and "(resumed k/n)" when k of n did.
func sweep(ctx context.Context, rc RunConfig, name string, rows, cols []string, cell func(i, j int) (detector.Factory, generator), lay layout, progress io.Writer) (*Grid, error) {
	st, err := rc.state(name)
	if err != nil {
		return nil, err
	}
	g := &Grid{Rows: rows, Cols: cols, layout: lay}
	for i, row := range rows {
		g.AUPRC = append(g.AUPRC, make([]Cell, len(cols)))
		g.AUROC = append(g.AUROC, make([]Cell, len(cols)))
		for j, col := range cols {
			key := name + "/" + row
			if col != "" {
				key += "/" + col
			}
			f, gen := cell(i, j)
			prc, roc, resumed, err := evalCell(ctx, rc, st, key, f, gen)
			if err != nil {
				return nil, fmt.Errorf("%s: %w", key, err)
			}
			g.AUPRC[i][j], g.AUROC[i][j] = prc, roc
			if progress != nil {
				note := ""
				if resumed == rc.Runs && resumed > 0 {
					note = " (resumed)"
				} else if resumed > 0 {
					note = fmt.Sprintf(" (resumed %d/%d)", resumed, rc.Runs)
				}
				fmt.Fprintf(progress, "%-40s AUPRC=%s AUROC=%s%s\n", key, prc, roc, note)
			}
		}
	}
	return g, nil
}

// bundles returns the generator of profile p's bundles, with mutate
// (when non-nil) applied to each run's options.
func (rc RunConfig) bundles(p synth.Profile, mutate func(*synth.Options)) generator {
	return func(run int) (*dataset.Bundle, error) { return rc.generateFor(p, run, mutate) }
}

// targadWith returns a TargAD factory whose configuration is rc's
// with mutate applied.
func (rc RunConfig) targadWith(mutate func(*core.Config)) detector.Factory {
	return func(seed int64) detector.Detector {
		cfg := rc.targadConfig()
		mutate(&cfg)
		return core.New(cfg, seed)
	}
}

// generateFor builds one run's bundle for a profile with optional
// option overrides applied after the RunConfig defaults.
func (rc RunConfig) generateFor(p synth.Profile, run int, mutate func(*synth.Options)) (*dataset.Bundle, error) {
	opt := rc.genOptions(run)
	if mutate != nil {
		mutate(&opt)
	}
	return synth.Generate(p, opt)
}
