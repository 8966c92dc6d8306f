package experiments

import (
	"bytes"
	"context"
	"errors"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"targad/internal/detector"
)

// Failure model of the harness: broken detectors degrade to error
// cells, and the state store resumes interrupted tables.

func TestEvalCellDegradesToErrorCell(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 2
	factory := func(seed int64) detector.Detector {
		return &stubDetector{fitErr: errors.New("baseline exploded")}
	}
	prc, roc, _, err := evalCell(context.Background(), rc, nil, "k", factory, stubGen(b))
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

func TestEvalCellDegradesOnPanic(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 1
	factory := func(seed int64) detector.Detector {
		panic("factory blew up")
	}
	prc, _, _, err := evalCell(context.Background(), rc, nil, "k", factory, stubGen(b))
	if err != nil {
		t.Fatalf("a detector panic must degrade, not abort: %v", err)
	}
	if !prc.Failed() {
		t.Fatalf("want error cell, got %v", prc)
	}
}

func TestEvalCellAbortsOnCancel(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 3
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	factory := func(seed int64) detector.Detector { return &stubDetector{} }
	_, _, _, err := evalCell(ctx, rc, nil, "k", factory, stubGen(b))
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
	key := runKey(microConfig().fingerprint(), "table2/TargAD/KDDCUP99", 0)
	want := runResult{AUPRC: 0.8, AUROC: 0.9}
	if err := st.put(key, want); err != nil {
		t.Fatal(err)
	}

	// Reopen from disk: the run must survive the round trip.
	st2, err := OpenState(path)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := st2.lookup(key)
	if !ok || got != want {
		t.Fatalf("lookup after reopen = %v, %v; want %v", got, ok, want)
	}
	if len(st2.runs) != 1 {
		t.Fatalf("store holds %d runs, want 1", len(st2.runs))
	}
}

func TestStateRejectsNewerVersion(t *testing.T) {
	path := filepath.Join(t.TempDir(), "state.json")
	if err := os.WriteFile(path, []byte(`{"Version": 99, "Runs": {}}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenState(path); err == nil {
		t.Fatal("newer state version must be rejected")
	}
}

// TestStateRefusesV1: a version-1 file holds whole-cell aggregates
// with no record of the configuration that produced them, so it must
// be refused, with an error naming the file.
func TestStateRefusesV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "table2.json")
	v1 := `{"Version": 1, "Cells": {"table2/TargAD/KDDCUP99": {"AUPRC": {"Mean": 0.8, "Std": 0}, "AUROC": {"Mean": 0.9, "Std": 0}}}}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenState(path)
	if err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("OpenState(v1) = %v; want an error naming %s", err, path)
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
	if err := st.put("x", runResult{}); err != nil {
		t.Fatal(err)
	}
}

// TestFingerprintCoversResultFields: every RunConfig field except
// Runs, ModelFilter and StateDir changes a run's result, so changing
// it must change the fingerprint; changing one of those three must
// not. A field added to RunConfig fails here until fingerprint (or the
// exclusion list) accounts for it.
func TestFingerprintCoversResultFields(t *testing.T) {
	base := microConfig()
	excluded := map[string]bool{"Runs": true, "ModelFilter": true, "StateDir": true}
	typ := reflect.TypeOf(base)
	for i := 0; i < typ.NumField(); i++ {
		rc := base
		f := reflect.ValueOf(&rc).Elem().Field(i)
		switch f.Kind() {
		case reflect.Int, reflect.Int64:
			f.SetInt(f.Int() + 1)
		case reflect.Float64:
			f.SetFloat(f.Float() * 2)
		case reflect.String:
			f.SetString("changed")
		case reflect.Slice:
			f.Set(reflect.ValueOf([]string{"changed"}))
		default:
			t.Fatalf("field %s: unhandled kind %s", typ.Field(i).Name, f.Kind())
		}
		name := typ.Field(i).Name
		if changed := rc.fingerprint() != base.fingerprint(); changed == excluded[name] {
			t.Errorf("changing %s changes the fingerprint: %v, want %v", name, changed, !excluded[name])
		}
	}
}

// TestEvalCellResumes: a rerun takes recorded runs from the store,
// and raising Runs computes only the added runs, each with its own
// seed.
func TestEvalCellResumes(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 1
	st, err := OpenState(filepath.Join(t.TempDir(), "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	var seeds []int64
	factory := func(seed int64) detector.Detector { seeds = append(seeds, seed); return &stubDetector{} }

	if _, _, resumed, err := evalCell(context.Background(), rc, st, "k", factory, stubGen(b)); err != nil || resumed != 0 {
		t.Fatalf("first eval must compute: resumed=%d err=%v", resumed, err)
	}
	if _, _, resumed, err := evalCell(context.Background(), rc, st, "k", factory, stubGen(b)); err != nil || resumed != 1 {
		t.Fatalf("second eval must come from the store: resumed=%d err=%v", resumed, err)
	}
	rc.Runs = 3
	if _, _, resumed, err := evalCell(context.Background(), rc, st, "k", factory, stubGen(b)); err != nil || resumed != 1 {
		t.Fatalf("Runs 1 → 3 must resume run 0: resumed=%d err=%v", resumed, err)
	}
	want := []int64{rc.Seed, rc.Seed + 7919, rc.Seed + 2*7919}
	if !reflect.DeepEqual(seeds, want) {
		t.Fatalf("detectors built with seeds %v, want %v", seeds, want)
	}
	if len(st.runs) != 3 {
		t.Fatalf("store holds %d runs, want 3", len(st.runs))
	}
}

// TestEvalCellNeverRecordsFailedRun: when run 1 of a cell fails, run 0
// is on record and run 1 is not, and a rerun retries only run 1.
func TestEvalCellNeverRecordsFailedRun(t *testing.T) {
	b := stubBundle(t)
	rc := microConfig()
	rc.Runs = 2
	st, err := OpenState(filepath.Join(t.TempDir(), "t.json"))
	if err != nil {
		t.Fatal(err)
	}
	builds := map[int64]int{}
	factory := func(seed int64) detector.Detector {
		builds[seed]++
		if seed == rc.Seed+7919 {
			return &stubDetector{fitErr: errors.New("flaky")}
		}
		return &stubDetector{}
	}

	for attempt := 0; attempt < 2; attempt++ {
		prc, _, resumed, err := evalCell(context.Background(), rc, st, "k", factory, stubGen(b))
		if err != nil || !prc.Failed() || resumed != attempt {
			t.Fatalf("attempt %d: want an error cell with %d runs resumed: %v resumed=%d err=%v", attempt, attempt, prc, resumed, err)
		}
	}
	config := rc.fingerprint()
	if _, ok := st.lookup(runKey(config, "k", 0)); !ok {
		t.Fatal("run 0 succeeded but is not on record")
	}
	if _, ok := st.lookup(runKey(config, "k", 1)); ok {
		t.Fatal("failed run 1 is on record")
	}
	if builds[rc.Seed] != 1 || builds[rc.Seed+7919] != 2 {
		t.Fatalf("detector builds per seed = %v; want run 0 once, run 1 on each attempt", builds)
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

// sweepTwice runs Table2 at first, then at second on one state
// directory, and returns the second grid and its progress lines.
func sweepTwice(t *testing.T, first, second RunConfig) (*Grid, []string) {
	t.Helper()
	dir := t.TempDir()
	first.StateDir, second.StateDir = dir, dir
	ctx := context.Background()
	if _, err := Table2(ctx, first, nil); err != nil {
		t.Fatal(err)
	}
	var progress bytes.Buffer
	g, err := Table2(ctx, second, &progress)
	if err != nil {
		t.Fatal(err)
	}
	return g, strings.Split(strings.TrimSpace(progress.String()), "\n")
}

// assertFresh checks g against a fresh Table2 run at rc.
func assertFresh(t *testing.T, rc RunConfig, g *Grid) {
	t.Helper()
	fresh, err := Table2(context.Background(), rc, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(g.AUPRC, fresh.AUPRC) || !reflect.DeepEqual(g.AUROC, fresh.AUROC) {
		t.Fatalf("resumed grid differs from a fresh one:\n%v %v\nvs\n%v %v", g.AUPRC, g.AUROC, fresh.AUPRC, fresh.AUROC)
	}
}

// TestResumeExtendsRuns: Runs 1 then Runs 2 on one state directory
// computes only run 1 of every cell and equals a fresh Runs 2 grid.
func TestResumeExtendsRuns(t *testing.T) {
	one := microConfig()
	one.ModelFilter = []string{"iForest"}
	two := one
	two.Runs = 2
	g, lines := sweepTwice(t, one, two)
	if cells := len(g.Rows) * len(g.Cols); len(lines) != cells {
		t.Fatalf("%d progress lines for %d cells", len(lines), cells)
	}
	for _, l := range lines {
		if !strings.HasSuffix(l, "(resumed 1/2)") {
			t.Fatalf("want run 0 resumed and run 1 computed: %q", l)
		}
	}
	assertFresh(t, two, g)
}

// TestResumeRecomputesChangedSeed: a rerun at another Seed on the same
// state directory recomputes every cell.
func TestResumeRecomputesChangedSeed(t *testing.T) {
	one := microConfig()
	one.ModelFilter = []string{"iForest"}
	other := one
	other.Seed = 2
	g, lines := sweepTwice(t, one, other)
	for _, l := range lines {
		if strings.Contains(l, "resumed") {
			t.Fatalf("changed seed reused a run: %q", l)
		}
	}
	assertFresh(t, other, g)
}
