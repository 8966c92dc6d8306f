package wire

import (
	"errors"
	"math"

	"targad/internal/dataset"
)

// Encoding helpers. The Append* functions grow dst in place and return
// it — callers that recycle dst across requests (the serving arenas)
// encode with zero steady-state allocations.

func appendPrefix(dst []byte, frameType, flags, b7 byte) []byte {
	return append(dst, Magic[0], Magic[1], Magic[2], Magic[3], Version, frameType, flags, b7)
}

func appendU32(dst []byte, v uint32) []byte {
	return append(dst, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

func appendU64(dst []byte, v uint64) []byte {
	return append(dst,
		byte(v), byte(v>>8), byte(v>>16), byte(v>>24),
		byte(v>>32), byte(v>>40), byte(v>>48), byte(v>>56))
}

// AppendRequestF64 appends one f64 score-request frame carrying rows.
// strategy < 0 leaves the strategy to the server default; 0/1/2 name
// MSP/ES/ED explicitly.
func AppendRequestF64(dst []byte, rows [][]float64, strategy int, probs bool) ([]byte, error) {
	h, err := requestHeader(len(rows), rowWidth64(rows), strategy, probs, false)
	if err != nil {
		return nil, err
	}
	dst = h.appendHeader(dst)
	for _, row := range rows {
		if len(row) != h.Features {
			return nil, errors.New("wire: ragged request rows")
		}
		for _, v := range row {
			dst = appendU64(dst, math.Float64bits(v))
		}
	}
	return dst, nil
}

// AppendRequestF32 appends one f32 score-request frame carrying rows.
func AppendRequestF32(dst []byte, rows [][]float32, strategy int, probs bool) ([]byte, error) {
	features := 0
	if len(rows) > 0 {
		features = len(rows[0])
	}
	h, err := requestHeader(len(rows), features, strategy, probs, true)
	if err != nil {
		return nil, err
	}
	dst = h.appendHeader(dst)
	for _, row := range rows {
		if len(row) != h.Features {
			return nil, errors.New("wire: ragged request rows")
		}
		for _, v := range row {
			dst = appendU32(dst, math.Float32bits(v))
		}
	}
	return dst, nil
}

func rowWidth64(rows [][]float64) int {
	if len(rows) == 0 {
		return 0
	}
	return len(rows[0])
}

func requestHeader(rows, features, strategy int, probs, f32 bool) (Request, error) {
	var r Request
	if rows <= 0 || features <= 0 {
		return r, errors.New("wire: request needs at least one row and one feature")
	}
	if rows > MaxRows || features > MaxFeatures {
		return r, errors.New("wire: request exceeds frame size limits")
	}
	if strategy > StrategyED {
		return r, errors.New("wire: strategy byte out of range")
	}
	r.Rows, r.Features = rows, features
	r.F32 = f32
	r.WantProbs = probs
	if strategy >= 0 {
		r.HasStrategy = true
		r.Strategy = byte(strategy)
	}
	return r, nil
}

func (r Request) appendHeader(dst []byte) []byte {
	var flags byte
	if r.F32 {
		flags |= FlagReqF32
	}
	if r.WantProbs {
		flags |= FlagReqProbs
	}
	if r.HasStrategy {
		flags |= FlagReqStrategy
	}
	dst = appendPrefix(dst, TypeRequest, flags, r.Strategy)
	dst = appendU32(dst, uint32(r.Rows))
	return appendU32(dst, uint32(r.Features))
}

// RespFlags composes the response flag byte from the result shape.
func RespFlags(decisions, probs, streamed bool) byte {
	var f byte
	if decisions {
		f |= FlagRespDecisions
	}
	if probs {
		f |= FlagRespProbs
	}
	if streamed {
		f |= FlagRespStreamed
	}
	return f
}

// AppendResponseHeader appends the 24-byte score-response header.
// classes must be 0 unless flags carries FlagRespProbs.
func AppendResponseHeader(dst []byte, modelVersion int64, rows, classes int, flags byte) []byte {
	dst = appendPrefix(dst, TypeResponse, flags, 0)
	dst = appendU64(dst, uint64(modelVersion))
	dst = appendU32(dst, uint32(rows))
	return appendU32(dst, uint32(classes))
}

// AppendScoreChunk appends one response chunk: the scores, then — when
// non-nil — the matching decision bytes and the flat row-major
// probability block (len(scores)*classes values). The presence of
// kinds and probs must agree with the header's flag bits for every
// chunk of a response.
func AppendScoreChunk(dst []byte, scores []float64, kinds []dataset.Kind, probs []float64) []byte {
	dst = appendU32(dst, uint32(len(scores)))
	for _, v := range scores {
		dst = appendU64(dst, math.Float64bits(v))
	}
	if kinds != nil {
		for _, k := range kinds {
			dst = append(dst, byte(k))
		}
	}
	if probs != nil {
		for _, v := range probs {
			dst = appendU64(dst, math.Float64bits(v))
		}
	}
	return dst
}

// AppendError appends one error frame with an HTTP-semantics status
// code and a message (truncated to MaxErrorLen).
func AppendError(dst []byte, code int, msg string) []byte {
	if len(msg) > MaxErrorLen {
		msg = msg[:MaxErrorLen]
	}
	dst = appendPrefix(dst, TypeError, 0, 0)
	dst = append(dst, byte(code), byte(code>>8), 0, 0)
	dst = appendU32(dst, uint32(len(msg)))
	return append(dst, msg...)
}
