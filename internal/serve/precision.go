package serve

import (
	"fmt"
	"strings"

	"targad/internal/core"
	"targad/internal/mat"
)

// Precision selects the numeric path requests are scored on.
type Precision int

const (
	// F64 (the default) scores on the float64 path, bitwise-identical
	// to offline core.Model.Score/Infer on the same model file.
	F64 Precision = iota
	// F32 scores on the float32 inference path: parameters are narrowed
	// once at load, the forward pass runs the f32 GEMM (AVX2/FMA
	// kernels where available), and scores carry the tolerance contract
	// documented in DESIGN.md ("Numerical precision model") instead of
	// the bitwise guarantee.
	F32
)

// String returns the flag-style name ("f64", "f32").
func (p Precision) String() string {
	if p == F32 {
		return "f32"
	}
	return "f64"
}

// ParsePrecision maps the -precision flag values to the enum. The
// empty string is the default precision.
func ParsePrecision(s string) (Precision, bool) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "f64", "float64":
		return F64, true
	case "f32", "float32":
		return F32, true
	default:
		return 0, false
	}
}

// score runs one inference pass of m over x at the server's
// precision. It is the only place the request path reads the
// precision: rows are float64 everywhere in serve, and InferF32
// narrows them for its forward pass.
func (s *Server) score(m *core.Model, x *mat.Matrix, opt core.InferOptions) (*core.InferResult, error) {
	if s.cfg.Precision == F32 {
		return m.InferF32(nil, x, opt)
	}
	return m.Infer(nil, x, opt)
}

// intake applies the server's precision to a model before it serves
// or shadows: at f32 it narrows the parameters into a fresh float32
// set, so no generation's buffers are shared or rewritten. It is the
// only place the server applies its precision to a model. Callers hold
// reloadMu.
func (s *Server) intake(m *core.Model) error {
	if s.cfg.Precision != F32 {
		return nil
	}
	if err := m.EnableF32(); err != nil {
		return fmt.Errorf("enable float32: %w", err)
	}
	return nil
}
