package experiments

import (
	"fmt"
	"sort"
)

// ShapeCheck is one qualitative claim of the paper evaluated against
// measured results.
type ShapeCheck struct {
	Claim string
	Pass  bool
	Note  string
}

// Table2Shapes evaluates Table II's qualitative claims against a
// measured Table2 grid (models × datasets): TargAD leads AUPRC per
// dataset, and the unsupervised methods trail the semi-supervised
// median.
func Table2Shapes(g *Grid) []ShapeCheck {
	var out []ShapeCheck
	idx := map[string]int{}
	for i, m := range g.Rows {
		idx[m] = i
	}
	ti, hasTargAD := idx["TargAD"]
	for pi, ds := range g.Cols {
		if !hasTargAD {
			break
		}
		best, bestV := "", -1.0
		for mi, m := range g.Rows {
			if v := g.AUPRC[mi][pi].Mean; v > bestV {
				best, bestV = m, v
			}
		}
		out = append(out, ShapeCheck{
			Claim: fmt.Sprintf("TargAD has the top AUPRC on %s", ds),
			Pass:  best == "TargAD",
			Note:  fmt.Sprintf("best=%s (%.3f), TargAD=%.3f", best, bestV, g.AUPRC[ti][pi].Mean),
		})
	}
	// Unsupervised methods below the semi-supervised median AUPRC,
	// averaged over datasets.
	if ui, ok := idx["iForest"]; ok {
		var semis []float64
		var unsup float64
		var nd int
		for pi := range g.Cols {
			var vals []float64
			for mi, m := range g.Rows {
				if m == "iForest" || m == "REPEN" || m == "TargAD" {
					continue
				}
				vals = append(vals, g.AUPRC[mi][pi].Mean)
			}
			if len(vals) == 0 {
				continue
			}
			sort.Float64s(vals)
			semis = append(semis, vals[len(vals)/2])
			unsup += g.AUPRC[ui][pi].Mean
			nd++
		}
		if nd > 0 {
			var medSum float64
			for _, v := range semis {
				medSum += v
			}
			pass := unsup/float64(nd) < medSum/float64(len(semis))
			out = append(out, ShapeCheck{
				Claim: "iForest (unsupervised) trails the semi-supervised median AUPRC",
				Pass:  pass,
				Note:  fmt.Sprintf("iForest mean %.3f vs semi-supervised median mean %.3f", unsup/float64(nd), medSum/float64(len(semis))),
			})
		}
	}
	return out
}

// Fig4aShapes evaluates the novel-non-target robustness claims against
// a measured Fig4a grid (models × settings): TargAD tops every
// setting, and its spread across settings stays small.
func Fig4aShapes(g *Grid) []ShapeCheck {
	var out []ShapeCheck
	ti := -1
	for i, m := range g.Rows {
		if m == "TargAD" {
			ti = i
		}
	}
	if ti < 0 {
		return out
	}
	topEverywhere := true
	lo, hi := 2.0, -1.0
	for si := range g.Cols {
		tv := g.AUPRC[ti][si].Mean
		if tv < lo {
			lo = tv
		}
		if tv > hi {
			hi = tv
		}
		for mi := range g.Rows {
			if mi != ti && g.AUPRC[mi][si].Mean > tv {
				topEverywhere = false
			}
		}
	}
	out = append(out, ShapeCheck{
		Claim: "TargAD has the top AUPRC at every novel-type setting",
		Pass:  topEverywhere,
	})
	out = append(out, ShapeCheck{
		Claim: "TargAD's AUPRC stays within a 0.15 band across settings",
		Pass:  hi-lo <= 0.15,
		Note:  fmt.Sprintf("band %.3f–%.3f", lo, hi),
	})
	return out
}

// RenderShapes prints shape checks as PASS/FAIL lines.
func RenderShapes(checks []ShapeCheck) string {
	var s string
	for _, c := range checks {
		mark := "PASS"
		if !c.Pass {
			mark = "FAIL"
		}
		s += fmt.Sprintf("[%s] %s", mark, c.Claim)
		if c.Note != "" {
			s += " — " + c.Note
		}
		s += "\n"
	}
	return s
}
