// Command targad-bench regenerates the tables and figures of the
// TargAD paper's evaluation section on the synthetic dataset
// substitutes.
//
// Usage:
//
//	targad-bench -exp table2            # one experiment
//	targad-bench -exp all -runs 1       # everything, single run each
//	targad-bench -exp fig6 -scale 0.1   # bigger datasets
//	targad-bench -exp table2 -full      # paper-scale (hours)
//
// Experiments: table1 table2 table3 table4 fig3 fig4a fig4b fig4c
// fig4d fig5 fig6 fig7a fig7bc weight-ablation all.
//
// With -state DIR, every grid experiment (all but table1, table4,
// fig3 and fig5) records each completed run of each cell under DIR,
// keyed by the configuration, and a rerun computes only the runs not
// on record under its own configuration.
package main

import (
	"bytes"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"targad/internal/buildinfo"
	"targad/internal/experiments"
	"targad/internal/parallel"
)

func main() {
	var (
		exp     = flag.String("exp", "table2", "experiment to run (table1..table4, fig3..fig7bc, weight-ablation, all)")
		full    = flag.Bool("full", false, "paper-scale configuration (slow)")
		scale   = flag.Float64("scale", 0, "override dataset scale (fraction of Table I sizes)")
		runs    = flag.Int("runs", 0, "override number of repetitions")
		seed    = flag.Int64("seed", 0, "override base seed")
		models  = flag.String("models", "", "comma-separated baseline subset (TargAD always kept)")
		epochs  = flag.Int("clf-epochs", 0, "override TargAD classifier epochs")
		lr      = flag.Float64("clf-lr", 0, "override TargAD classifier learning rate")
		labeled = flag.Int("labeled", 0, "override labeled anomalies per target type")
		quiet   = flag.Bool("quiet", false, "suppress per-cell progress lines")
		outPath = flag.String("o", "", "also write rendered results to this file")
		workers = flag.Int("workers", 0, "compute worker pool size (default GOMAXPROCS; TARGAD_WORKERS env also honored)")
		timeout = flag.Duration("timeout", 0, "abort the run after this long (e.g. 30m); 0 disables")
		state   = flag.String("state", "", "directory for per-experiment resume state; an interrupted grid experiment continues from its last completed run")

		showVersion = flag.Bool("version", false, "print version and exit")
	)
	flag.Parse()
	if *showVersion {
		fmt.Printf("targad-bench %s\n", buildinfo.Version())
		return
	}

	if *workers > 0 {
		parallel.SetWorkers(*workers)
	}

	rc := experiments.Fast()
	if *full {
		rc = experiments.Full()
	}
	if *scale > 0 {
		rc.Scale = *scale
	}
	if *runs > 0 {
		rc.Runs = *runs
	}
	if *seed != 0 {
		rc.Seed = *seed
	}
	if *models != "" {
		rc.ModelFilter = strings.Split(*models, ",")
	}
	if *epochs > 0 {
		rc.ClfEpochs = *epochs
	}
	if *lr > 0 {
		rc.ClfLR = *lr
	}
	if *labeled > 0 {
		rc.LabeledPerType = *labeled
	}
	rc.StateDir = *state

	// ^C/SIGTERM and -timeout cancel the run cooperatively: the
	// harness stops at the next cell or epoch boundary, and with
	// -state set the completed runs are already on disk.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	var progress io.Writer = os.Stderr
	if *quiet {
		progress = nil
	}
	out := io.Writer(os.Stdout)
	var file *os.File
	if *outPath != "" {
		var err error
		if file, err = os.Create(*outPath); err != nil {
			fatal(err)
		}
		out = io.MultiWriter(os.Stdout, file)
	}

	names := []string{*exp}
	if *exp == "all" {
		names = []string{"table1", "table2", "table3", "table4", "fig3", "fig4a", "fig4b", "fig4c", "fig4d", "fig5", "fig6", "fig7a", "fig7bc", "weight-ablation"}
	}
	for _, name := range names {
		if err := runTo(ctx, name, rc, out, progress); err != nil {
			if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
				fmt.Fprintln(os.Stderr, "targad-bench: interrupted:", err)
				if *state != "" {
					fmt.Fprintln(os.Stderr, "targad-bench: completed runs are saved under", *state, "- rerun the same command to resume")
				}
				os.Exit(130)
			}
			fatal(err)
		}
	}
	if file != nil {
		if err := file.Close(); err != nil {
			fatal(err)
		}
	}
}

// runTo runs one experiment and writes its output, then a wall-clock
// line, to out in a single Write. A failed write (a full -o file) is
// returned, so the run exits nonzero instead of leaving a truncated
// file behind a success.
func runTo(ctx context.Context, name string, rc experiments.RunConfig, out, progress io.Writer) error {
	var buf bytes.Buffer
	start := time.Now()
	if err := run(ctx, name, rc, &buf, progress); err != nil {
		return err
	}
	fmt.Fprintf(&buf, "\n[%s done in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	_, err := out.Write(buf.Bytes())
	return err
}

// grids are the experiments that sweep a detector over a grid of
// settings; shapeChecks are the paper's qualitative claims appended
// to a grid's output.
var (
	grids = map[string]func(context.Context, experiments.RunConfig, io.Writer) (*experiments.Grid, error){
		"table2":          experiments.Table2,
		"table3":          experiments.Table3,
		"fig4a":           experiments.Fig4a,
		"fig4b":           experiments.Fig4b,
		"fig4c":           experiments.Fig4c,
		"fig4d":           experiments.Fig4d,
		"fig6":            experiments.Fig6,
		"fig7a":           experiments.Fig7Eta,
		"fig7bc":          experiments.Fig7Lambda,
		"weight-ablation": experiments.WeightAblation,
	}
	shapeChecks = map[string]func(*experiments.Grid) []experiments.ShapeCheck{
		"table2": experiments.Table2Shapes,
		"fig4a":  experiments.Fig4aShapes,
	}
)

// renderer is implemented by every experiment result.
type renderer interface{ Render(io.Writer) }

func run(ctx context.Context, name string, rc experiments.RunConfig, out, progress io.Writer) error {
	if sweep, ok := grids[name]; ok {
		g, err := sweep(ctx, rc, progress)
		if err != nil {
			return err
		}
		g.Render(out)
		if check, ok := shapeChecks[name]; ok {
			fmt.Fprintf(out, "\nShape checks:\n%s", experiments.RenderShapes(check(g)))
		}
		return nil
	}
	var (
		res renderer
		err error
	)
	switch name {
	case "table1":
		res, err = experiments.Table1(rc)
	case "table4":
		res, err = experiments.Table4(ctx, rc, progress)
	case "fig3":
		res, err = experiments.Fig3(ctx, rc, progress)
	case "fig5":
		res, err = experiments.Fig5(ctx, rc, progress)
	default:
		return fmt.Errorf("unknown experiment %q (see -h)", name)
	}
	if err != nil {
		return err
	}
	res.Render(out)
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "targad-bench:", err)
	os.Exit(1)
}
