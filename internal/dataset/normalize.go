package dataset

import (
	"errors"
	"fmt"

	"targad/internal/mat"
)

// MinMaxScaler maps each feature to [0,1] using ranges fit on training
// data, the preprocessing the paper applies to all four datasets.
type MinMaxScaler struct {
	Min, Max []float64
}

// FitMinMax learns per-feature minima and maxima from x.
func FitMinMax(x *mat.Matrix) (*MinMaxScaler, error) {
	if x.Rows == 0 {
		return nil, errors.New("dataset: cannot fit scaler on empty matrix")
	}
	s := &MinMaxScaler{Min: make([]float64, x.Cols), Max: make([]float64, x.Cols)}
	copy(s.Min, x.Row(0))
	copy(s.Max, x.Row(0))
	for i := 1; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			if v < s.Min[j] {
				s.Min[j] = v
			}
			if v > s.Max[j] {
				s.Max[j] = v
			}
		}
	}
	return s, nil
}

// Transform scales x in place. Features that were constant during
// fitting map to 0. Out-of-range values are clamped to [0,1] so test
// data outside the training range cannot destabilize downstream
// models.
func (s *MinMaxScaler) Transform(x *mat.Matrix) error {
	if x.Cols != len(s.Min) {
		return fmt.Errorf("dataset: scaler fit on %d features, transforming %d", len(s.Min), x.Cols)
	}
	for i := 0; i < x.Rows; i++ {
		row := x.Row(i)
		for j, v := range row {
			span := s.Max[j] - s.Min[j]
			if span <= 0 {
				row[j] = 0
				continue
			}
			u := (v - s.Min[j]) / span
			if u < 0 {
				u = 0
			} else if u > 1 {
				u = 1
			}
			row[j] = u
		}
	}
	return nil
}

// MustVStack is VStack for callers whose operands are guaranteed
// compatible by construction; it panics on shape mismatch.
func MustVStack(ms ...*mat.Matrix) *mat.Matrix {
	out, err := VStack(ms...)
	if err != nil {
		panic(err)
	}
	return out
}

// VStack concatenates matrices top-to-bottom; all must share a column
// count. Zero-row operands are permitted.
func VStack(ms ...*mat.Matrix) (*mat.Matrix, error) {
	cols := -1
	rows := 0
	for _, m := range ms {
		if m.Rows == 0 {
			continue
		}
		if cols == -1 {
			cols = m.Cols
		} else if m.Cols != cols {
			return nil, fmt.Errorf("dataset: vstack operand has %d cols, want %d", m.Cols, cols)
		}
		rows += m.Rows
	}
	if cols == -1 {
		return mat.New(0, 0), nil
	}
	out := mat.New(rows, cols)
	r := 0
	for _, m := range ms {
		if m.Rows == 0 {
			continue
		}
		copy(out.Data[r*cols:(r+m.Rows)*cols], m.Data)
		r += m.Rows
	}
	return out, nil
}
