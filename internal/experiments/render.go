package experiments

import (
	"fmt"
	"io"
	"strings"
)

// table is a minimal fixed-width text-table builder used by every
// experiment's Render method so harness output lines up like the
// paper's tables.
type table struct {
	header []string
	rows   [][]string
}

func newTable(header ...string) *table { return &table{header: header} }

func (t *table) addRow(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) render(w io.Writer) {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			parts[i] = pad(c, widths[i])
		}
		fmt.Fprintln(w, strings.Join(parts, "  "))
	}
	line(t.header)
	sep := make([]string, len(t.header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, r := range t.rows {
		line(r)
	}
}

func pad(s string, w int) string {
	if len(s) >= w {
		return s
	}
	return s + strings.Repeat(" ", w-len(s))
}

func f3(v float64) string { return fmt.Sprintf("%.3f", v) }

// A layout writes a grid in one of the paper's table shapes.
type layout func(w io.Writer, g *Grid)

// gridTable writes cells as a table with the grid's columns across
// and its rows down, under the corner label, each cell as text(cell).
func gridTable(w io.Writer, g *Grid, corner string, cells [][]Cell, text func(Cell) string) {
	t := newTable(append([]string{corner}, g.Cols...)...)
	for i, label := range g.Rows {
		row := []string{label}
		for _, c := range cells[i] {
			row = append(row, text(c))
		}
		t.addRow(row...)
	}
	t.render(w)
}

func meanText(c Cell) string { return f3(c.Mean) }

// metricBlocks is Table II's layout: the title, then an AUPRC and an
// AUROC table of mean ± std cells.
func metricBlocks(title, corner string) layout {
	return func(w io.Writer, g *Grid) {
		fmt.Fprintln(w, title)
		fmt.Fprint(w, "\nAUPRC\n")
		gridTable(w, g, corner, g.AUPRC, Cell.String)
		fmt.Fprint(w, "\nAUROC\n")
		gridTable(w, g, corner, g.AUROC, Cell.String)
	}
}

// auprcTable is Fig. 4's layout: the title over one table of AUPRC
// mean ± std cells.
func auprcTable(title, corner string) layout {
	return func(w io.Writer, g *Grid) {
		fmt.Fprintf(w, "%s\n\n", title)
		gridTable(w, g, corner, g.AUPRC, Cell.String)
	}
}

// listTable is the layout of a one-column sweep (Table III, Fig. 7(a),
// the weight ablation): the title over a table with one line per row
// and its AUPRC and AUROC as mean ± std.
func listTable(title, corner string) layout {
	return func(w io.Writer, g *Grid) {
		fmt.Fprintf(w, "%s\n\n", title)
		t := newTable(corner, "AUPRC", "AUROC")
		for i, label := range g.Rows {
			t.addRow(label, g.AUPRC[i][0].String(), g.AUROC[i][0].String())
		}
		t.render(w)
	}
}

// heatmaps is the layout of Fig. 6 and Fig. 7(b,c): an AUPRC and an
// AUROC matrix of mean cells, each under its heading and followed by
// a blank line.
func heatmaps(corner, auprcHeading, aurocHeading string) layout {
	return func(w io.Writer, g *Grid) {
		fmt.Fprintf(w, "%s\n\n", auprcHeading)
		gridTable(w, g, corner, g.AUPRC, meanText)
		fmt.Fprintf(w, "\n%s\n\n", aurocHeading)
		gridTable(w, g, corner, g.AUROC, meanText)
		fmt.Fprintln(w)
	}
}

// percents labels fractions as whole percentages ("5%").
func percents(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprintf("%.0f%%", v*100)
	}
	return out
}

// numbers labels values in their shortest form ("0.01").
func numbers(vs []float64) []string {
	out := make([]string, len(vs))
	for i, v := range vs {
		out[i] = fmt.Sprint(v)
	}
	return out
}
