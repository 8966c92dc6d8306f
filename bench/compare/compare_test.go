package main

import (
	"os"
	"path/filepath"
	"testing"
)

func seq(from, step float64) []float64 {
	v := make([]float64, 10)
	for i := range v {
		v[i] = from + step*float64(i)
	}
	return v
}

func add(v []float64, d float64) []float64 {
	out := make([]float64, len(v))
	for i, x := range v {
		out[i] = x + d
	}
	return out
}

func TestJudgeVerdicts(t *testing.T) {
	base := seq(100, 1) // 100..109: median 104.5, IQR 5.5, spread ~5%
	cases := []struct {
		name   string
		head   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"every pair better by more than the IQR", add(base, -8), false, 0.1, improved},
		{"better, but by less than the IQR", add(base, -5), false, 0.1, unchanged},
		{"higher is better", add(base, 8), true, 0.1, improved},
		{"median worse by more than the bound", add(base, 15), false, 0.1, regressed},
		{"worse within the bound", add(base, 3), false, 0.1, unchanged},
		{"spread wider than the bound", add(base, 1), false, 0.02, unresolved},
		{"no bound and no clear winner", add(base, 1), false, -1, unresolved},
		{"no bound, losing every pair by more than the IQR", add(base, 8), false, -1, regressed},
	}
	for _, c := range cases {
		if got, _ := judge(base, c.head, c.higher, c.bound); got != c.want {
			t.Errorf("%s: verdict %s, want %s", c.name, got, c.want)
		}
	}
}

func TestJudgeNeedsNineTenthsOfPairs(t *testing.T) {
	base := seq(100, 1)
	head := add(base, -20)
	head[0], head[1] = 200, 200 // two lost pairs: 8/10 won
	if got, wins := judge(base, head, false, 0.5); got == improved || wins != 8 {
		t.Errorf("8 of 10 pairs won: verdict %s with %d wins, want no improvement", got, wins)
	}
	tie := add(base, -20)
	tie[0] = base[0] // a tie counts for neither side: 9/10 won
	if got, wins := judge(base, tie, false, 0.5); got != improved || wins != 9 {
		t.Errorf("9 of 10 pairs won with one tie: verdict %s with %d wins, want improved", got, wins)
	}
}

func TestLoadRunsKeysTracedRunsApart(t *testing.T) {
	dir := t.TempDir()
	files := map[string]string{
		"w-seed1.json":       `{"workload": "w", "seed": 1, "trace": false, "metrics": {}}`,
		"w-seed1-trace.json": `{"workload": "w", "seed": 1, "trace": true, "metrics": {}}`,
	}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	runs, err := loadRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(runs) != 2 || runs["w"][1] == nil || runs["w"][1].Trace || runs["w (traced)"][1] == nil || !runs["w (traced)"][1].Trace {
		t.Fatalf("runs %+v, want one untraced under w and one traced under \"w (traced)\"", runs)
	}
}

func TestCompareErrorShareHasZeroBound(t *testing.T) {
	mk := func(v float64) *run {
		return &run{Workload: "w", Metrics: map[string]value{"error_share": {Value: v, Unit: "fraction", Better: "lower"}}}
	}
	base := map[string]map[int64]*run{"w": {1: mk(0), 2: mk(0), 3: mk(0)}}
	head := map[string]map[int64]*run{"w": {1: mk(0), 2: mk(0.001), 3: mk(0.001)}}
	rows := compare(base, head, map[string]float64{})
	if len(rows) != 1 || rows[0].verdict != regressed {
		t.Fatalf("rows %+v, want error_share regressed", rows)
	}
}
