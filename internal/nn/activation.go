package nn

import (
	"fmt"
	"math"

	"targad/internal/mat"
)

// Activation names the element-wise nonlinearity a Dense stage applies
// to its output.
type Activation int

// Supported activations.
const (
	ReLU Activation = iota
	LeakyReLU
	Sigmoid
	Tanh
	Identity
)

// String returns the conventional lower-case name of the activation.
func (a Activation) String() string {
	switch a {
	case ReLU:
		return "relu"
	case LeakyReLU:
		return "leaky_relu"
	case Sigmoid:
		return "sigmoid"
	case Tanh:
		return "tanh"
	case Identity:
		return "identity"
	default:
		return "unknown"
	}
}

const leakySlope = 0.01

// reluBitsMax is the largest float64 bit pattern ReLU passes through:
// +Inf. Every bit pattern at or below it is +0 or a positive number
// (including +Inf); everything above has the sign bit set (negative
// values and -0) or is a NaN, and maps to +0.
const reluBitsMax = 0x7FF0000000000000

// addBiasAct adds the bias row vector to every row of m and applies the
// activation, in place and in one pass. Each element is computed
// exactly as a separate bias add followed by the element-wise
// activation would: ReLU gives v > 0 ? v : +0 (NaN gives +0), written
// branch-free on the bit pattern.
func addBiasAct(m *mat.Matrix, bias []float64, act Activation) {
	if len(bias) != m.Cols {
		panic(fmt.Sprintf("nn: bias len %d on %d columns", len(bias), m.Cols))
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		switch act {
		case ReLU:
			for j, b := range bias {
				u := math.Float64bits(row[j] + b)
				if u > reluBitsMax {
					u = 0
				}
				row[j] = math.Float64frombits(u)
			}
		case LeakyReLU:
			for j, b := range bias {
				if v := row[j] + b; v > 0 {
					row[j] = v
				} else {
					row[j] = leakySlope * v
				}
			}
		case Sigmoid:
			for j, b := range bias {
				row[j] = 1 / (1 + math.Exp(-(row[j] + b)))
			}
		case Tanh:
			for j, b := range bias {
				row[j] = math.Tanh(row[j] + b)
			}
		default:
			for j, b := range bias {
				row[j] += b
			}
		}
	}
}

// actGrad multiplies grad in place by the activation's derivative,
// read from the stage output out = act(z). For ReLU and LeakyReLU,
// out <= 0 exactly when z <= 0 for every non-NaN z.
func actGrad(act Activation, grad, out []float64) {
	switch act {
	case ReLU:
		for i, y := range out[:len(grad)] {
			if y <= 0 {
				grad[i] = 0
			}
		}
	case LeakyReLU:
		for i, y := range out[:len(grad)] {
			if y <= 0 {
				grad[i] *= leakySlope
			}
		}
	case Sigmoid:
		for i, g := range grad {
			s := out[i]
			grad[i] = g * s * (1 - s)
		}
	case Tanh:
		for i, g := range grad {
			t := out[i]
			grad[i] = g * (1 - t*t)
		}
	}
}
