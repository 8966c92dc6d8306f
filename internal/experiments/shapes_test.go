package experiments

import (
	"strings"
	"testing"
)

func TestTable2Shapes(t *testing.T) {
	res := &Grid{
		Cols: []string{"D1", "D2"},
		Rows: []string{"iForest", "DevNet", "DeepSAD", "TargAD"},
		AUPRC: [][]Cell{
			{{Mean: 0.2}, {Mean: 0.3}}, // iForest
			{{Mean: 0.5}, {Mean: 0.6}}, // DevNet
			{{Mean: 0.6}, {Mean: 0.5}}, // DeepSAD
			{{Mean: 0.8}, {Mean: 0.7}}, // TargAD
		},
	}
	checks := Table2Shapes(res)
	if len(checks) != 3 {
		t.Fatalf("expected 3 checks, got %d", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Fatalf("check %q should pass: %s", c.Claim, c.Note)
		}
	}
	// Flip TargAD below DeepSAD on D1 → first check fails.
	res.AUPRC[3][0].Mean = 0.55
	checks = Table2Shapes(res)
	if checks[0].Pass {
		t.Fatal("dethroned TargAD must fail the first check")
	}
}

func TestFig4aShapes(t *testing.T) {
	res := &Grid{
		Cols: []string{"0", "1", "2", "3"},
		Rows: []string{"DevNet", "TargAD"},
		AUPRC: [][]Cell{
			{{Mean: 0.7}, {Mean: 0.65}, {Mean: 0.6}, {Mean: 0.55}},
			{{Mean: 0.8}, {Mean: 0.79}, {Mean: 0.81}, {Mean: 0.78}},
		},
	}
	checks := Fig4aShapes(res)
	if len(checks) != 2 {
		t.Fatalf("expected 2 checks, got %d", len(checks))
	}
	for _, c := range checks {
		if !c.Pass {
			t.Fatalf("check %q should pass: %s", c.Claim, c.Note)
		}
	}
	rendered := RenderShapes(checks)
	if !strings.Contains(rendered, "[PASS]") {
		t.Fatalf("render missing PASS marks: %s", rendered)
	}
	// A wildly varying TargAD fails the stability band.
	res.AUPRC[1][3].Mean = 0.4
	checks = Fig4aShapes(res)
	if checks[1].Pass {
		t.Fatal("wide band must fail the stability check")
	}
	if !strings.Contains(RenderShapes(checks), "[FAIL]") {
		t.Fatal("render missing FAIL mark")
	}
}

func TestFig4aShapesNoTargAD(t *testing.T) {
	res := &Grid{Rows: []string{"DevNet"}}
	if got := Fig4aShapes(res); len(got) != 0 {
		t.Fatalf("no TargAD row should yield no checks, got %d", len(got))
	}
}
