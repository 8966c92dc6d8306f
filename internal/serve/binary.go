package serve

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"time"

	"targad/internal/core"
	"targad/internal/dataset"
	"targad/internal/wire"
)

// Binary protocol front end (DESIGN.md §12): requests whose
// Content-Type is wire.ContentType carry one wire request frame instead
// of JSON. The payload streams into the request arena's matrix — f32
// frames go straight into the float32 inference path when the server
// runs -precision f32, with no f64 round-trip — and the response is a
// wire score frame built in the arena's output buffer, streamed as a
// chunk sequence when the batch is large. Scores are bit-for-bit the
// values the JSON path would have carried for the same rows.

// handleScoreBinary answers one binary /score request. start is the
// handler entry time (shared with the JSON path's latency histogram).
func (s *Server) handleScoreBinary(w http.ResponseWriter, r *http.Request, start time.Time) {
	s.metrics.binaryReqs.Add(1)
	a := acquireArena()
	if _, err := io.ReadFull(r.Body, a.hdr[:]); err != nil {
		releaseArena(a)
		s.failBinary(w, http.StatusBadRequest, "truncated request header: "+err.Error())
		return
	}
	h, err := wire.ParseRequestHeader(a.hdr[:])
	if err != nil {
		releaseArena(a)
		s.failBinary(w, wireErrStatus(err), err.Error())
		return
	}
	// The header's own geometry bounds the read: nothing is sized from
	// the body past this check, so MaxBytesReader is unnecessary here.
	if h.FrameSize() > s.cfg.MaxBodyBytes {
		releaseArena(a)
		s.metrics.tooLarge.Add(1)
		s.failBinary(w, http.StatusRequestEntityTooLarge,
			fmt.Sprintf("frame of %d bytes exceeds the %d-byte request limit", h.FrameSize(), s.cfg.MaxBodyBytes))
		return
	}
	if cl := r.ContentLength; cl >= 0 && cl != h.FrameSize() {
		releaseArena(a)
		s.failBinary(w, http.StatusBadRequest,
			fmt.Sprintf("Content-Length %d disagrees with the %d-byte frame the header announces", cl, h.FrameSize()))
		return
	}
	// The payload streams straight into the arena's matrix: the raw
	// feature block is never held as bytes.
	useF32 := h.F32 && s.cfg.Precision == F32
	if useF32 {
		a.x32, err = a.payload.ReadF32(r.Body, h, a.x32)
	} else {
		// An f32 frame on an f64 server widens (exactly) into the f64
		// path.
		a.x, err = a.payload.ReadF64(r.Body, h, a.x)
	}
	if err != nil {
		releaseArena(a)
		s.failBinary(w, wireErrStatus(err), "truncated feature block: "+err.Error())
		return
	}
	var probe [1]byte
	if n, _ := r.Body.Read(probe[:]); n > 0 {
		releaseArena(a)
		s.failBinary(w, http.StatusBadRequest, "trailing bytes past the announced frame")
		return
	}

	strat, strict := s.cfg.Strategy, false
	if h.HasStrategy {
		strat, strict = core.OODStrategy(h.Strategy), true
	}
	s.metrics.requests.Add(1)

	j := &a.j
	j.ctx = r.Context()
	j.x, j.x32 = nil, nil
	if useF32 {
		j.x32 = a.x32
	} else {
		j.x = a.x
	}
	j.identify = true
	j.strict = strict
	j.strategy = strat
	j.probs = h.WantProbs
	j.arena = a

	res, ok, recycle := s.awaitScore(j, w, r, true)
	if !ok {
		if recycle {
			releaseArena(a)
		}
		return
	}
	s.writeScoreFrame(w, a, h, res, start)
	releaseArena(a)
}

// failBinary answers a binary request with one wire error frame and
// counts the failure.
func (s *Server) failBinary(w http.ResponseWriter, status int, msg string) {
	s.metrics.requestErrs.Add(1)
	writeWireError(w, status, msg)
}

func writeWireError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", wire.ContentType)
	w.WriteHeader(status)
	_, _ = w.Write(wire.AppendError(nil, status, msg))
}

// wireErrStatus maps a wire decode error to its HTTP status.
func wireErrStatus(err error) int {
	if errors.Is(err, wire.ErrTooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// writeScoreFrame serializes one jobResult as a wire response frame
// from the request's arena buffers. Responses wider than
// wire.StreamChunkRows rows stream chunk by chunk, flushing as they
// go, so the peak output buffer stays bounded no matter the batch.
func (s *Server) writeScoreFrame(w http.ResponseWriter, a *reqArena, h wire.Request, res jobResult, start time.Time) {
	if res.err != nil {
		s.failBinary(w, scoreErrStatus(res.err), res.err.Error())
		return
	}
	rows := len(res.scores)
	withProbs := h.WantProbs && res.probs != nil
	classes := 0
	if withProbs {
		classes = res.probs.Cols
	}
	streamed := rows > wire.StreamChunkRows
	// Decisions flag off = the served model has no calibration for the
	// strategy (the JSON path's warning case).
	flags := wire.RespFlags(res.kinds != nil, withProbs, streamed)
	w.Header().Set("Content-Type", wire.ContentType)
	a.out = wire.AppendResponseHeader(a.out[:0], res.version, rows, classes, flags)
	if !streamed {
		a.out = appendResultChunk(a.out, res, 0, rows, withProbs, classes)
		w.WriteHeader(http.StatusOK)
		_, _ = w.Write(a.out)
	} else {
		w.WriteHeader(http.StatusOK)
		if _, err := w.Write(a.out); err != nil {
			return
		}
		fl, _ := w.(http.Flusher)
		for lo := 0; lo < rows; lo += wire.StreamChunkRows {
			hi := min(lo+wire.StreamChunkRows, rows)
			a.out = appendResultChunk(a.out[:0], res, lo, hi, withProbs, classes)
			if _, err := w.Write(a.out); err != nil {
				return
			}
			if fl != nil {
				fl.Flush()
			}
		}
	}
	s.metrics.requestOK.Add(1)
	s.metrics.observeLatency(time.Since(start))
}

// appendResultChunk appends rows [lo,hi) of the result as one wire
// chunk.
func appendResultChunk(dst []byte, res jobResult, lo, hi int, withProbs bool, classes int) []byte {
	var kinds []dataset.Kind
	if res.kinds != nil {
		kinds = res.kinds[lo:hi]
	}
	var probs []float64
	if withProbs {
		probs = res.probs.Data[lo*classes : hi*classes]
	}
	return wire.AppendScoreChunk(dst, res.scores[lo:hi], kinds, probs)
}
