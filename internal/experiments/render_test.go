package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// handCells builds a rows × cols block of distinct mean ± std cells
// starting at base, with an error cell at the bottom-left corner.
func handCells(rows, cols int, base float64) [][]Cell {
	out := make([][]Cell, rows)
	for i := range out {
		out[i] = make([]Cell, cols)
		for j := range out[i] {
			out[i][j] = Cell{Mean: base + 0.0731*float64(i) - 0.0123*float64(j), Std: 0.0017 * float64(i+j)}
		}
	}
	out[rows-1][0] = Cell{Err: "boom"}
	return out
}

// TestRenderGolden renders hand-built grids in every experiment's
// layout and compares the bytes with testdata/render/<name>.golden,
// which hold the output of the per-experiment renderers the grid
// layouts replaced, on the same cells.
func TestRenderGolden(t *testing.T) {
	models := []string{"DevNet", "DeepSAD", "TargAD"}
	variants := []string{"TargAD_-O-R", "TargAD_-O", "TargAD_-R", "TargAD"}
	lambdas := numbers([]float64{0.01, 0.1, 1, 2, 5, 10})
	one := []string{""}
	for _, tc := range []struct {
		name       string
		lay        layout
		rows, cols []string
	}{
		{"table2", table2Layout, models, []string{"UNSW-NB15", "KDDCUP99", "NSL-KDD", "SQB"}},
		{"fig4a", fig4Layout("fig4a"), models, []string{"0 new types", "1 new type", "2 new types", "3 new types"}},
		{"table3", table3Layout, variants, one},
		{"fig6", fig6Layout, percents([]float64{0.01, 0.05, 0.10, 0.15, 0.20}), percents([]float64{0.01, 0.05, 0.10, 0.15})},
		{"fig7a", fig7aLayout, numbers([]float64{0, 0.01, 0.1, 1, 10, 100}), one},
		{"fig7bc", fig7bcLayout, lambdas, lambdas},
		{"weight-ablation", weightAblationLayout, []string{"frozen Eq.(5) weights", "full Eq.(4) updates"}, one},
	} {
		t.Run(tc.name, func(t *testing.T) {
			g := &Grid{
				Rows: tc.rows, Cols: tc.cols,
				AUPRC:  handCells(len(tc.rows), len(tc.cols), 0.5),
				AUROC:  handCells(len(tc.rows), len(tc.cols), 0.7),
				layout: tc.lay,
			}
			var got bytes.Buffer
			g.Render(&got)
			want, err := os.ReadFile(filepath.Join("testdata", "render", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("render differs from golden:\ngot:\n%s\nwant:\n%s", got.Bytes(), want)
			}
		})
	}
}
