package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"targad/internal/dataset"
	"targad/internal/detector"
)

// Failure model of the harness: broken detectors degrade to error
// cells, and the state store resumes interrupted tables.

func TestRepeatEvalDegradesToErrorCell(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 2
	factory := func(seed int64) detector.Detector {
		return &stubDetector{fitErr: errors.New("baseline exploded")}
	}
	prc, roc, err := repeatEval(context.Background(), rc, factory, func(run int) (*dataset.Bundle, error) { return b, nil })
	if err != nil {
		t.Fatalf("a detector failure must degrade, not abort: %v", err)
	}
	if !prc.Failed() || !roc.Failed() {
		t.Fatalf("want error cells, got %v / %v", prc, roc)
	}
	if prc.String() != "error" {
		t.Fatalf("error cell renders as %q, want \"error\"", prc.String())
	}
}

func TestRepeatEvalDegradesOnPanic(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 1
	factory := func(seed int64) detector.Detector {
		panic("factory blew up")
	}
	prc, _, err := repeatEval(context.Background(), rc, factory, func(run int) (*dataset.Bundle, error) { return b, nil })
	if err != nil {
		t.Fatalf("a detector panic must degrade, not abort: %v", err)
	}
	if !prc.Failed() {
		t.Fatalf("want error cell, got %v", prc)
	}
}

func TestRepeatEvalAbortsOnCancel(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 3
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	factory := func(seed int64) detector.Detector { return &stubDetector{} }
	_, _, err := repeatEval(ctx, rc, factory, func(run int) (*dataset.Bundle, error) { return b, nil })
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancellation must abort the run, got %v", err)
	}
}

func TestStateRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table2.json")
	st, err := OpenState(path)
	if err != nil {
		t.Fatal(err)
	}
	want := cellPair{AUPRC: Cell{Mean: 0.8, Std: 0.01}, AUROC: Cell{Mean: 0.9, Std: 0.02}}
	if err := st.put("table2/TargAD/KDDCUP99", want); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: the cell must survive the round trip.
	st2, err := OpenState(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.lookup("table2/TargAD/KDDCUP99")
	if !ok || got != want {
		t.Fatalf("lookup after reopen = %v, %v; want %v", got, ok, want)
	}
	if st2.Len() != 1 {
		t.Fatalf("Len = %d, want 1", st2.Len())
	}
}

func TestStateRejectsNewerVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte(`{"Version": 99, "Cells": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenState(path); err == nil {
		t.Fatal("newer state version must be rejected")
	}
}

func TestStateRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenState(path); err == nil {
		t.Fatal("garbage state file must be rejected")
	}
}

func TestNilStateDisablesCaching(t *testing.T) {
	var st *State
	if _, ok := st.lookup("x"); ok {
		t.Fatal("nil state must miss")
	}
	if err := st.put("x", cellPair{}); err != nil {
		t.Fatal(err)
	}
	if st.Len() != 0 {
		t.Fatal("nil state must be empty")
	}
}

func TestCachedEvalResumes(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 1
	st, err := OpenState(filepath.Join(t.TempDir(), "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	evals := 0
	factory := func(seed int64) detector.Detector { evals++; return &stubDetector{} }
	gen := func(run int) (*dataset.Bundle, error) { return b, nil }

	_, _, cached, err := cachedEval(context.Background(), rc, st, "k", factory, gen)
	if err != nil || cached {
		t.Fatalf("first eval must compute: cached=%v err=%v", cached, err)
	}
	_, _, cached, err = cachedEval(context.Background(), rc, st, "k", factory, gen)
	if err != nil || !cached {
		t.Fatalf("second eval must come from the store: cached=%v err=%v", cached, err)
	}
	if evals != 1 {
		t.Fatalf("detector built %d times, want 1", evals)
	}
}

func TestCachedEvalNeverCachesErrorCells(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 1
	st, err := OpenState(filepath.Join(t.TempDir(), "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	factory := func(seed int64) detector.Detector {
		return &stubDetector{fitErr: errors.New("flaky")}
	}
	gen := func(run int) (*dataset.Bundle, error) { return b, nil }

	prc, _, cached, err := cachedEval(context.Background(), rc, st, "k", factory, gen)
	if err != nil || cached || !prc.Failed() {
		t.Fatalf("want fresh error cell: %v cached=%v err=%v", prc, cached, err)
	}
	// A rerun retries instead of replaying the failure from the store.
	_, _, cached, err = cachedEval(context.Background(), rc, st, "k", factory, gen)
	if err != nil || cached {
		t.Fatalf("error cells must not be cached: cached=%v err=%v", cached, err)
	}
	if st.Len() != 0 {
		t.Fatalf("store recorded %d cells, want 0", st.Len())
	}
}

// TestTable2ResumesFromState runs grid experiments twice on one state
// directory: the second run must take every cell from the store and
// agree with the first.
func TestTable2ResumesFromState(t *testing.T) {
	for _, tc := range []struct {
		name string
		run  func(context.Context, RunConfig, io.Writer) (*Grid, error)
	}{
		{"Table2", Table2},
		{"Fig7Eta", Fig7Eta},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rc := microConfig()
			rc.StateDir = t.TempDir()
			rc.ModelFilter = []string{"iForest"} // iForest + TargAD keeps Table2 cheap
			ctx := context.Background()
			res, err := tc.run(ctx, rc, nil)
			if err != nil {
				t.Fatal(err)
			}
			var progress bytes.Buffer
			res2, err := tc.run(ctx, rc, &progress)
			if err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(progress.String()), "\n")
			if cells := len(res.Rows) * len(res.Cols); len(lines) != cells {
				t.Fatalf("%d progress lines for %d cells", len(lines), cells)
			}
			for _, l := range lines {
				if !strings.HasSuffix(l, "(resumed)") {
					t.Fatalf("resumed run recomputed a cell: %q", l)
				}
			}
			for i := range res.AUPRC {
				for j := range res.AUPRC[i] {
					if res.AUPRC[i][j] != res2.AUPRC[i][j] || res.AUROC[i][j] != res2.AUROC[i][j] {
						t.Fatalf("cell %d/%d differs on resume: %v vs %v", i, j, res.AUPRC[i][j], res2.AUPRC[i][j])
					}
				}
			}
		})
	}
}
