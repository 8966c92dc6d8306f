package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"targad/internal/dataset"
	"targad/internal/mat"
)

// ParseRequestHeader validates the first RequestHeaderSize bytes of a
// request frame and returns the parsed header. It allocates nothing on
// the happy path; every malformed prefix returns a typed error.
func ParseRequestHeader(b []byte) (Request, error) {
	var r Request
	if len(b) < RequestHeaderSize {
		return r, fmt.Errorf("%w: %d-byte request header, want %d", ErrTruncated, len(b), RequestHeaderSize)
	}
	t, err := checkPrefix(b)
	if err != nil {
		return r, err
	}
	if t != TypeRequest {
		return r, fmt.Errorf("%w: type %d, want request (%d)", ErrFrameType, t, TypeRequest)
	}
	flags := b[6]
	if flags&^byte(FlagReqF32|FlagReqProbs|FlagReqStrategy) != 0 {
		return r, fmt.Errorf("%w: unknown request flag bits 0x%02x", ErrMalformed, flags)
	}
	r.F32 = flags&FlagReqF32 != 0
	r.WantProbs = flags&FlagReqProbs != 0
	r.HasStrategy = flags&FlagReqStrategy != 0
	r.Strategy = b[7]
	if r.HasStrategy {
		if r.Strategy > StrategyED {
			return r, fmt.Errorf("%w: strategy byte %d (want 0 MSP, 1 ES, 2 ED)", ErrMalformed, r.Strategy)
		}
	} else if r.Strategy != 0 {
		return r, fmt.Errorf("%w: nonzero strategy byte without the strategy flag", ErrMalformed)
	}
	rows := binary.LittleEndian.Uint32(b[8:12])
	features := binary.LittleEndian.Uint32(b[12:16])
	if rows == 0 || features == 0 {
		return r, fmt.Errorf("%w: %dx%d feature block", ErrMalformed, rows, features)
	}
	if rows > MaxRows || features > MaxFeatures {
		return r, fmt.Errorf("%w: %dx%d feature block (limits %dx%d)", ErrTooLarge, rows, features, MaxRows, MaxFeatures)
	}
	r.Rows, r.Features = int(rows), int(features)
	return r, nil
}

// ParseRequestFrameSize validates a request frame's leading
// RequestHeaderSize bytes and returns the total frame length (header +
// payload) the header announces, without touching the payload. Proxies
// that forward frames opaquely use it to size-check and buffer a
// request from the header alone; the parse limits guarantee the result
// cannot overflow.
func ParseRequestFrameSize(hdr []byte) (int64, error) {
	h, err := ParseRequestHeader(hdr)
	if err != nil {
		return 0, err
	}
	return h.FrameSize(), nil
}

// payloadChunk is PayloadReader's largest staging size: enough that
// the per-Read overhead vanishes, small enough to stay in L1. It is a
// multiple of both element widths.
const payloadChunk = 4096

// PayloadReader streams a request's feature block from an io.Reader
// straight into a matrix, a fixed-size chunk at a time, so no copy of
// the raw payload is ever held. The zero value is ready; it owns a
// chunk buffer of at most payloadChunk bytes, grown to the largest
// block it has read, so keep one per goroutine (a serving arena holds
// one) and reuse it — steady-state reads over a recycled dst allocate
// nothing.
//
// The destination is sized from the header before any payload byte is
// read: callers must bound h.PayloadSize() (a server's request-size
// cap) first.
type PayloadReader struct {
	buf []byte
}

// chunk returns the staging buffer for h's block, growing it if needed.
func (p *PayloadReader) chunk(h Request) []byte {
	if want := int(min(h.PayloadSize(), payloadChunk)); cap(p.buf) < want {
		p.buf = make([]byte, want)
	}
	return p.buf[:cap(p.buf)]
}

// ReadF64 reads the feature block h announces from r into dst (grown
// via mat.Ensure, nil allocates). An f32 block widens exactly, so its
// scores match an f64 frame carrying the same values. A block that
// ends early fails with ErrTruncated; bytes past it are left unread.
func (p *PayloadReader) ReadF64(r io.Reader, h Request, dst *mat.Matrix) (*mat.Matrix, error) {
	dst = mat.Ensure(dst, h.Rows, h.Features)
	es := h.elemSize()
	buf := p.chunk(h)
	out := dst.Data
	for len(out) > 0 {
		n := min(len(out), len(buf)/es)
		b := buf[:n*es]
		if err := readChunk(r, h, b, len(dst.Data)-len(out)); err != nil {
			return nil, err
		}
		if h.F32 {
			for i := range out[:n] {
				out[i] = float64(math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:])))
			}
		} else {
			for i := range out[:n] {
				out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[i*8:]))
			}
		}
		out = out[n:]
	}
	return dst, nil
}

// ReadF32 reads an f32 feature block into dst without widening — the
// rows go straight into the float32 inference path. An f64 block fails
// with ErrMalformed before anything is read.
func (p *PayloadReader) ReadF32(r io.Reader, h Request, dst *mat.Matrix32) (*mat.Matrix32, error) {
	if !h.F32 {
		return nil, fmt.Errorf("%w: f64 payload decoded as f32", ErrMalformed)
	}
	dst = mat.Ensure32(dst, h.Rows, h.Features)
	buf := p.chunk(h)
	out := dst.Data
	for len(out) > 0 {
		n := min(len(out), len(buf)/4)
		b := buf[:n*4]
		if err := readChunk(r, h, b, len(dst.Data)-len(out)); err != nil {
			return nil, err
		}
		for i := range out[:n] {
			out[i] = math.Float32frombits(binary.LittleEndian.Uint32(b[i*4:]))
		}
		out = out[n:]
	}
	return dst, nil
}

// readChunk reads exactly len(b) payload bytes; done counts the
// elements already decoded, for the truncation message.
func readChunk(r io.Reader, h Request, b []byte, done int) error {
	n, err := io.ReadFull(r, b)
	if err != nil {
		return fmt.Errorf("%w: feature block ends after %d of %d bytes: %v",
			ErrTruncated, int64(done*h.elemSize()+n), h.PayloadSize(), err)
	}
	return nil
}

// DecodePayloadF64 decodes an in-memory f64 feature block through a
// PayloadReader. payload must be exactly the block the header
// announced; the length is checked before the matrix is sized.
func DecodePayloadF64(h Request, payload []byte, dst *mat.Matrix) (*mat.Matrix, error) {
	if h.F32 {
		return nil, fmt.Errorf("%w: f32 payload decoded as f64", ErrMalformed)
	}
	if err := checkPayloadLen(h, len(payload)); err != nil {
		return nil, err
	}
	var p PayloadReader
	return p.ReadF64(bytes.NewReader(payload), h, dst)
}

func checkPayloadLen(h Request, got int) error {
	want := h.PayloadSize()
	switch {
	case int64(got) < want:
		return fmt.Errorf("%w: %d payload bytes, header announced %d", ErrTruncated, got, want)
	case int64(got) > want:
		return fmt.Errorf("%w: %d trailing bytes past the feature block", ErrMalformed, int64(got)-want)
	}
	return nil
}

// DecodeRequestFrame decodes one whole request frame (header +
// payload) into a freshly allocated f64 matrix, widening f32 payloads.
// It is the convenience/reference decoder used by tests and the
// fuzzer; the serving path streams the payload with a PayloadReader
// instead.
func DecodeRequestFrame(frame []byte) (Request, *mat.Matrix, error) {
	h, err := ParseRequestHeader(frame)
	if err != nil {
		return h, nil, err
	}
	payload := frame[RequestHeaderSize:]
	if err := checkPayloadLen(h, len(payload)); err != nil {
		return h, nil, err
	}
	var p PayloadReader
	x, err := p.ReadF64(bytes.NewReader(payload), h, nil)
	return h, x, err
}

// Response is a decoded score response, with chunked frames
// reassembled.
type Response struct {
	ModelVersion int64
	// Scores holds S^tar per row, bit-for-bit the served float64.
	Scores []float64
	// Decisions holds the three-way call per row, nil when the
	// response carried none.
	Decisions []dataset.Kind
	// Probs holds the per-class probability rows when requested, nil
	// otherwise.
	Probs *mat.Matrix
	// Streamed reports the FlagRespStreamed bit; Chunks counts the
	// chunks the response arrived in.
	Streamed bool
	Chunks   int
}

// DecodeResponse decodes a complete score-response frame, walking its
// chunk sequence until the announced row count is covered.
func DecodeResponse(b []byte) (*Response, error) {
	if len(b) < ResponseHeaderSize {
		return nil, fmt.Errorf("%w: %d-byte response header, want %d", ErrTruncated, len(b), ResponseHeaderSize)
	}
	t, err := checkPrefix(b)
	if err != nil {
		return nil, err
	}
	if t != TypeResponse {
		return nil, fmt.Errorf("%w: type %d, want response (%d)", ErrFrameType, t, TypeResponse)
	}
	flags := b[6]
	if flags&^byte(FlagRespDecisions|FlagRespProbs|FlagRespStreamed) != 0 {
		return nil, fmt.Errorf("%w: unknown response flag bits 0x%02x", ErrMalformed, flags)
	}
	if b[7] != 0 {
		return nil, fmt.Errorf("%w: nonzero reserved byte", ErrMalformed)
	}
	rows := binary.LittleEndian.Uint32(b[16:20])
	classes := binary.LittleEndian.Uint32(b[20:24])
	if rows == 0 || rows > MaxRows {
		return nil, fmt.Errorf("%w: %d response rows", ErrMalformed, rows)
	}
	hasDec := flags&FlagRespDecisions != 0
	hasProbs := flags&FlagRespProbs != 0
	if hasProbs && (classes == 0 || classes > MaxClasses) {
		return nil, fmt.Errorf("%w: %d probability classes", ErrMalformed, classes)
	}
	if !hasProbs && classes != 0 {
		return nil, fmt.Errorf("%w: class count without the probability flag", ErrMalformed)
	}

	r := &Response{
		ModelVersion: int64(binary.LittleEndian.Uint64(b[8:16])),
		Streamed:     flags&FlagRespStreamed != 0,
	}
	if hasProbs {
		r.Probs = &mat.Matrix{Cols: int(classes)}
	}
	body := b[ResponseHeaderSize:]
	total := int(rows)
	for len(r.Scores) < total {
		if len(body) < 4 {
			return nil, fmt.Errorf("%w: short chunk prefix", ErrTruncated)
		}
		n := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		if n == 0 || n > total-len(r.Scores) {
			return nil, fmt.Errorf("%w: chunk of %d rows with %d remaining", ErrMalformed, n, total-len(r.Scores))
		}
		need := n * 8
		if hasDec {
			need += n
		}
		if hasProbs {
			need += n * int(classes) * 8
		}
		if len(body) < need {
			return nil, fmt.Errorf("%w: %d chunk bytes, want %d", ErrTruncated, len(body), need)
		}
		for i := 0; i < n; i++ {
			r.Scores = append(r.Scores, math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:])))
		}
		body = body[n*8:]
		if hasDec {
			for i := 0; i < n; i++ {
				d := body[i]
				if d > 2 {
					return nil, fmt.Errorf("%w: decision byte %d", ErrMalformed, d)
				}
				r.Decisions = append(r.Decisions, dataset.Kind(d))
			}
			body = body[n:]
		}
		if hasProbs {
			for i := 0; i < n*int(classes); i++ {
				r.Probs.Data = append(r.Probs.Data, math.Float64frombits(binary.LittleEndian.Uint64(body[i*8:])))
			}
			body = body[n*int(classes)*8:]
		}
		r.Chunks++
	}
	if len(body) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes past the last chunk", ErrMalformed, len(body))
	}
	if r.Probs != nil {
		r.Probs.Rows = total
	}
	return r, nil
}

// DecodeErrorFrame decodes an error frame into its status code and
// message.
func DecodeErrorFrame(b []byte) (code int, msg string, err error) {
	if len(b) < ErrorHeaderSize {
		return 0, "", fmt.Errorf("%w: %d-byte error header, want %d", ErrTruncated, len(b), ErrorHeaderSize)
	}
	t, err := checkPrefix(b)
	if err != nil {
		return 0, "", err
	}
	if t != TypeError {
		return 0, "", fmt.Errorf("%w: type %d, want error (%d)", ErrFrameType, t, TypeError)
	}
	if b[6] != 0 || b[7] != 0 || b[10] != 0 || b[11] != 0 {
		return 0, "", fmt.Errorf("%w: nonzero reserved bytes", ErrMalformed)
	}
	code = int(binary.LittleEndian.Uint16(b[8:10]))
	n := binary.LittleEndian.Uint32(b[12:16])
	if n > MaxErrorLen {
		return 0, "", fmt.Errorf("%w: %d-byte error message", ErrTooLarge, n)
	}
	if len(b) != ErrorHeaderSize+int(n) {
		return 0, "", fmt.Errorf("%w: %d message bytes, header announced %d", ErrTruncated, len(b)-ErrorHeaderSize, n)
	}
	return code, string(b[ErrorHeaderSize:]), nil
}
