package serve

import (
	"strings"

	"targad/internal/core"
	"targad/internal/mat"
	"targad/internal/nn"
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

// Generation pinning. Every batch pins the generation it scores on
// (acquireModel/releaseModel), whatever the precision; install
// publishes the successor, then retires the outgoing generation. In
// f64 mode nothing waits on the drain and the GC takes the retired
// generation. In f32 mode each generation carries a converted
// parameter set worth recycling: the next reload waits for the retired
// generation to drain and hands its buffers to core.Model.EnableF32,
// so a steady stream of reloads allocates no parameter garbage.

// spare32 is what a retired generation leaves for reclaim: its float32
// parameter set (nil on the f64 path) and its drain signal. It holds
// no reference to the generation itself.
type spare32 struct {
	params  *nn.Params32
	drained <-chan struct{}
}

// acquireModel pins the serving generation for one batch, or returns
// nil when no model is loaded. A failed pin means install retired the
// generation after publishing its successor, so the retry finds the
// successor.
func (s *Server) acquireModel() *loadedModel {
	for {
		lm := s.cur.Load()
		if lm == nil || lm.pins.TryPin() {
			return lm
		}
	}
}

// releaseModel unpins a generation captured by acquireModel.
func (s *Server) releaseModel(lm *loadedModel) { lm.pins.Release() }

// reclaimSpare32 returns the float32 parameter buffers of the
// generation retired by the previous install, once its last batch has
// released its pin, or nil when there is nothing to recycle. Callers
// hold reloadMu.
func (s *Server) reclaimSpare32() *nn.Params32 {
	sp := s.spare
	if sp.params == nil {
		return nil
	}
	<-sp.drained
	s.spare = spare32{}
	return sp.params
}
