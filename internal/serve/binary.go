package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/wire"
)

// Binary protocol front end (DESIGN.md §12): requests whose
// Content-Type is wire.ContentType carry one wire request frame instead
// of JSON. Only decode and encode are binary-specific; handleScore runs
// the rest for both protocols. The payload streams into the request
// arena's matrix — an f32 frame widens exactly there, so every frame
// scores on the same float64 rows as JSON — and the response is a wire
// score frame built in the arena's output buffer, streamed as a chunk
// sequence when the batch is large. Scores are bit-for-bit the values
// the JSON path would have carried for the same rows.

// decodeFrame reads one wire request frame into the arena: the
// payload streams straight into a.x — the raw feature block is never
// held as bytes, and an f32 frame widens exactly, whatever precision
// the server scores at — and the header's options into a.j. A non-zero
// status rejects the request with msg.
func (s *Server) decodeFrame(a *reqArena, r *http.Request) (status int, msg string) {
	if _, err := io.ReadFull(r.Body, a.hdr[:]); err != nil {
		return http.StatusBadRequest, "truncated request header: " + err.Error()
	}
	h, err := wire.ParseRequestHeader(a.hdr[:])
	if err != nil {
		return wireErrStatus(err), err.Error()
	}
	// The header's own geometry bounds the read: nothing is sized from
	// the body past this check, so MaxBytesReader is unnecessary here.
	if h.FrameSize() > s.cfg.MaxBodyBytes {
		return http.StatusRequestEntityTooLarge,
			fmt.Sprintf("frame of %d bytes exceeds the %d-byte request limit", h.FrameSize(), s.cfg.MaxBodyBytes)
	}
	if cl := r.ContentLength; cl >= 0 && cl != h.FrameSize() {
		return http.StatusBadRequest,
			fmt.Sprintf("Content-Length %d disagrees with the %d-byte frame the header announces", cl, h.FrameSize())
	}
	if a.x, err = a.payload.ReadF64(r.Body, h, a.x); err != nil {
		return wireErrStatus(err), "truncated feature block: " + err.Error()
	}
	var probe [1]byte
	if n, _ := r.Body.Read(probe[:]); n > 0 {
		return http.StatusBadRequest, "trailing bytes past the announced frame"
	}
	a.j.strategy, a.j.strict, a.j.probs = s.cfg.Strategy, false, h.WantProbs
	if h.HasStrategy {
		a.j.strategy, a.j.strict = core.OODStrategy(h.Strategy), true
	}
	return 0, ""
}

// wireErrStatus maps a wire decode error to its HTTP status.
func wireErrStatus(err error) int {
	if errors.Is(err, wire.ErrTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeScoreFrame encodes one successful jobResult as a wire response
// frame from the request's arena buffers. Responses wider than
// wire.StreamChunkRows rows stream chunk by chunk, flushing as they
// go, so the peak output buffer stays bounded no matter the batch.
func writeScoreFrame(w http.ResponseWriter, a *reqArena, res jobResult) {
	rows := len(res.scores)
	withProbs := res.probs != nil // set only when the frame asked
	classes := 0
	if withProbs {
		classes = res.probs.Cols
	}
	streamed := rows > wire.StreamChunkRows
	// Decisions flag off = the served model has no calibration for the
	// strategy (the JSON path's warning case).
	flags := wire.RespFlags(res.kinds != nil, withProbs, streamed)
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	a.out = wire.AppendResponseHeader(a.out[:0], res.version, rows, classes, flags)
	fl, _ := w.(http.Flusher)
	for lo := 0; lo < rows; lo += wire.StreamChunkRows {
		hi := min(lo+wire.StreamChunkRows, rows)
		var kinds []dataset.Kind
		if res.kinds != nil {
			kinds = res.kinds[lo:hi]
		}
		var probs []float64
		if withProbs {
			probs = res.probs.Data[lo*classes : hi*classes]
		}
		a.out = wire.AppendScoreChunk(a.out, res.scores[lo:hi], kinds, probs)
		if _, err := w.Write(a.out); err != nil {
			return
		}
		a.out = a.out[:0]
		if streamed && fl != nil {
			fl.Flush()
		}
	}
}
