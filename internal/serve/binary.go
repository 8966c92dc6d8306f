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
// of JSON. Only decode and encode are binary-specific; scoreRequest
// runs the rest for both protocols. The payload streams into the
// request arena's matrix — an f32 frame widens exactly there, so every
// frame scores on the same float64 rows as JSON — at most MaxBatch rows
// at a time, and the response is a wire score frame built in the
// arena's output buffer, streamed as a chunk sequence when the request
// is large. Scores are bit-for-bit the values the JSON path would have
// carried for the same rows.

// decodeFrame reads one wire request frame's header into the arena:
// its geometry into a.h and a.rows, its options beside them. The
// payload is left to scorePasses, which reads it pass by pass, so the
// raw feature block is never held as bytes; an f32 frame widens
// exactly, whatever precision the server scores at.
func (s *Server) decodeFrame(a *reqArena, r *http.Request) error {
	if _, err := io.ReadFull(r.Body, a.hdr[:]); err != nil {
		return badRequest("truncated request header: " + err.Error())
	}
	h, err := wire.ParseRequestHeader(a.hdr[:])
	if err != nil {
		return &statusError{wireErrStatus(err), err.Error()}
	}
	// The header's own geometry bounds the read: nothing is sized from
	// the body past this check, so MaxBytesReader is unnecessary here.
	if h.FrameSize() > s.cfg.MaxBodyBytes {
		return &statusError{http.StatusRequestEntityTooLarge,
			fmt.Sprintf("frame of %d bytes exceeds the %d-byte request limit", h.FrameSize(), s.cfg.MaxBodyBytes)}
	}
	if cl := r.ContentLength; cl >= 0 && cl != h.FrameSize() {
		return badRequest(fmt.Sprintf("Content-Length %d disagrees with the %d-byte frame the header announces", cl, h.FrameSize()))
	}
	a.h, a.rows = h, h.Rows
	a.strategy, a.strict, a.wantProbs = s.cfg.Strategy, false, h.WantProbs
	if h.HasStrategy {
		a.strategy, a.strict = core.OODStrategy(h.Strategy), true
	}
	return nil
}

// readRows decodes rows [lo, lo+n) of the request frame's feature
// block from body into a.x, which then holds those n rows only.
func (a *reqArena) readRows(body io.Reader, lo, n int) error {
	x, err := a.payload.ReadRows(body, a.h, lo, n, a.x)
	if err != nil {
		return &statusError{wireErrStatus(err), "truncated feature block: " + err.Error()}
	}
	a.x = x
	return nil
}

// frameEnd fails a frame whose body runs past its announced feature
// block. The probe reads into the header buffer, parsed long before.
func (a *reqArena) frameEnd(body io.Reader) error {
	if n, _ := body.Read(a.hdr[:1]); n > 0 {
		return badRequest("trailing bytes past the announced frame")
	}
	return nil
}

// wireErrStatus maps a wire decode error to its HTTP status.
func wireErrStatus(err error) int {
	if errors.Is(err, wire.ErrTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeScoreFrame encodes the arena's answer as a wire response frame
// from the arena's buffers. Responses wider than wire.StreamChunkRows
// rows stream chunk by chunk, flushing as they go, so the peak output
// buffer stays bounded no matter the request.
func writeScoreFrame(w http.ResponseWriter, a *reqArena) {
	rows := len(a.scores)
	classes := 0
	if a.wantProbs {
		classes = a.probs.Cols
	}
	streamed := rows > wire.StreamChunkRows
	// Decisions flag off = the served model has no calibration for the
	// strategy (the JSON path's warning case).
	flags := wire.RespFlags(a.decided, a.wantProbs, streamed)
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(http.StatusOK)
	a.out = wire.AppendResponseHeader(a.out[:0], a.version, rows, classes, flags)
	fl, _ := w.(http.Flusher)
	for lo := 0; lo < rows; lo += wire.StreamChunkRows {
		hi := min(lo+wire.StreamChunkRows, rows)
		var kinds []dataset.Kind
		if a.decided {
			kinds = a.kinds[lo:hi]
		}
		var probs []float64
		if a.wantProbs {
			probs = a.probs.Data[lo*classes : hi*classes]
		}
		a.out = wire.AppendScoreChunk(a.out, a.scores[lo:hi], kinds, probs)
		if _, err := w.Write(a.out); err != nil {
			return
		}
		a.out = a.out[:0]
		if streamed && fl != nil {
			fl.Flush()
		}
	}
}
