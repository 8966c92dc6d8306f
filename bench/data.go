package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"targad/internal/dataset"
	"targad/internal/dataset/synth"
	"targad/internal/mat"
)

// dataScale is the fraction of the paper's Table I sizes every workload
// generates: 3132 unlabeled and 1130 test rows for UNSW-NB15, enough
// for a fit-dominated set-up of a few seconds.
const dataScale = 0.05

// inputs is one workload's generated dataset: the three CSV files the
// targad CLI trains and scores from, plus the test split in memory with
// its ground truth, from which requests and verdicts are drawn.
type inputs struct {
	labeled, unlabeled, test string // CSV paths
	x                        *mat.Matrix
	kind                     []dataset.Kind
	typ                      []int
}

// makeInputs generates the named synth profile at dataScale from seed
// and writes its CSVs into dir, in the layout cmd/targad-synth writes.
func makeInputs(dir, profile string, seed int64) (*inputs, error) {
	p, ok := synth.ProfileByName(profile)
	if !ok {
		return nil, fmt.Errorf("unknown dataset profile %q", profile)
	}
	b, err := synth.Generate(p, synth.Options{Scale: dataScale, Seed: seed})
	if err != nil {
		return nil, err
	}
	in := &inputs{
		labeled:   filepath.Join(dir, "labeled.csv"),
		unlabeled: filepath.Join(dir, "unlabeled.csv"),
		test:      filepath.Join(dir, "test.csv"),
		x:         b.Test.X,
		kind:      b.Test.Kind,
		typ:       b.Test.Type,
	}
	labeled := mat.New(b.Train.Labeled.Rows, b.Train.Labeled.Cols+1)
	for i := 0; i < labeled.Rows; i++ {
		row := labeled.Row(i)
		row[0] = float64(b.Train.LabeledType[i])
		copy(row[1:], b.Train.Labeled.Row(i))
	}
	for path, m := range map[string]*mat.Matrix{in.labeled: labeled, in.unlabeled: b.Train.Unlabeled, in.test: b.Test.X} {
		if err := writeCSV(path, m); err != nil {
			return nil, err
		}
	}
	return in, nil
}

func writeCSV(path string, m *mat.Matrix) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := dataset.WriteCSV(w, m, nil); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write %s: %w", path, err)
	}
	return f.Close()
}

// readScores parses a score file written by `targad -score` (one
// full-precision float per line) and checks it has n scores.
func readScores(path string, n int) ([]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	lines := strings.Fields(string(raw))
	if len(lines) != n {
		return nil, fmt.Errorf("%s: %d scores for %d test rows", path, len(lines), n)
	}
	out := make([]float64, n)
	for i, l := range lines {
		if out[i], err = strconv.ParseFloat(l, 64); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, i+1, err)
		}
	}
	return out, nil
}
