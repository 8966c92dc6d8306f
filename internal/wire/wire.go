// Package wire defines the binary scoring protocol of the serving
// layer (DESIGN.md §12): versioned, length-prefixed, little-endian
// columnar frames that carry feature rows to POST /score and S^tar
// scores, three-way decisions, and per-class probabilities back, with
// near-zero per-request garbage — the JSON path costs ~150 allocs and
// ~18 KB per request, all marshalling; a frame decodes into pooled
// arena buffers and encodes from them.
//
// Every frame starts with the same 8-byte prefix:
//
//	offset  size  field
//	0       4     magic "TGAD"
//	4       1     version (1)
//	5       1     frame type (1 request, 2 response, 3 error)
//	6       1     type-specific flags
//	7       1     type-specific byte (request: strategy; otherwise 0)
//
// Score request (type 1), header 16 bytes:
//
//	8       4     uint32 row count
//	12      4     uint32 feature count
//	16      ...   row-major feature block, rows*features elements,
//	              little-endian float64 (8 B) or — with FlagReqF32 —
//	              float32 (4 B)
//
// Request flags: FlagReqF32 narrows the payload element type,
// FlagReqProbs requests per-class probabilities, FlagReqStrategy marks
// byte 7 as an explicit identification strategy (0 MSP, 1 ES, 2 ED;
// without the flag byte 7 must be 0 and the server default applies).
//
// Score response (type 2), header 24 bytes:
//
//	8       8     int64 model version
//	16      4     uint32 total row count
//	20      4     uint32 class count (0 unless FlagRespProbs)
//	24      ...   one or more chunks
//
// Each chunk is:
//
//	0       4     uint32 chunk row count n (>= 1)
//	4       n*8   float64 S^tar scores
//	...     n     decision bytes (only with FlagRespDecisions;
//	              0 normal, 1 target, 2 non-target)
//	...     n*c*8 float64 probability rows (only with FlagRespProbs)
//
// Chunks cover the total row count exactly; FlagRespStreamed marks a
// response the server split across several chunks (large batches are
// flushed chunk by chunk so the peak buffer stays bounded). Scores are
// always float64: the served score values are float64 on both
// precision paths, so the binary response is bit-for-bit the value the
// JSON path would have printed.
//
// Error frame (type 3), header 16 bytes + message:
//
//	8       2     uint16 status code (HTTP semantics)
//	10      2     reserved (0)
//	12      4     uint32 message length
//	16      ...   UTF-8 message
//
// Compatibility: the version byte is bumped on any layout change, and
// decoders reject unknown versions, frame types, and flag bits with
// typed errors — a malformed or truncated frame can never panic the
// decoder (FuzzDecodeFrame pins this).
//
// Opaque pass-through (proxies): an intermediary such as
// cmd/targad-router may forward frames without decoding the payload.
// The constraints that make this safe are part of the protocol
// contract:
//
//   - A request frame's total length is fully determined by its
//     16-byte header (ParseRequestFrameSize), so a proxy can validate
//     and bound buffering before reading the payload and must reject a
//     body that disagrees with the announced size.
//   - Frames must be forwarded byte-for-byte — never re-encoded, split
//     across requests, or coalesced — so scores routed through a proxy
//     stay bitwise-identical to a direct response, and a buffered
//     frame may be replayed verbatim on a retry to another replica.
//   - An intermediary that answers for an unreachable fleet speaks the
//     same error frame type (AppendError) a server would, so binary
//     clients parse one failure shape end to end. Every layer of the
//     stack answers failures through WriteError (http.go), which also
//     owns the one test for a frame request, IsFrame.
package wire

import (
	"errors"
	"fmt"
)

// ContentType negotiates the binary protocol on the HTTP listener;
// requests without it fall back to JSON.
const ContentType = "application/x-targad-frame"

// Version is the frame layout version this package encodes and the
// only one it accepts.
const Version = 1

// Magic is the 4-byte frame prefix.
var Magic = [4]byte{'T', 'G', 'A', 'D'}

// Frame types (byte 5).
const (
	TypeRequest  = 1
	TypeResponse = 2
	TypeError    = 3
)

// Request flag bits (byte 6 of a request frame).
const (
	FlagReqF32      = 1 << 0 // feature block holds float32, not float64
	FlagReqProbs    = 1 << 1 // return per-class probabilities
	FlagReqStrategy = 1 << 2 // byte 7 names the identification strategy
)

// Response flag bits (byte 6 of a response frame).
const (
	FlagRespDecisions = 1 << 0 // chunks carry decision bytes
	FlagRespProbs     = 1 << 1 // chunks carry probability rows
	FlagRespStreamed  = 1 << 2 // response was flushed as multiple chunks
)

// Strategy bytes (byte 7 of a request frame with FlagReqStrategy).
// They match core.OODStrategy's values.
const (
	StrategyMSP = 0
	StrategyES  = 1
	StrategyED  = 2
)

// Header sizes.
const (
	PrefixSize         = 8
	RequestHeaderSize  = 16
	ResponseHeaderSize = 24
	ErrorHeaderSize    = 16
)

// Decode limits: a header whose claimed geometry exceeds these is
// rejected before any buffer is sized from it, so a hostile 16-byte
// frame cannot demand gigabytes.
const (
	MaxRows     = 1 << 24 // rows per request or response
	MaxFeatures = 1 << 20 // features per row
	MaxClasses  = 1 << 16 // probability columns per row
	MaxErrorLen = 1 << 16 // error message bytes
)

// StreamChunkRows is the row granularity servers use when flushing a
// large response as a chunk stream.
const StreamChunkRows = 1024

// Typed decode errors. Every way a frame can be malformed maps onto
// exactly one of these (possibly wrapped with detail); decoders return
// them instead of panicking.
var (
	// ErrTruncated reports a frame shorter than its own length
	// prefixes claim (short header, short payload, short chunk).
	ErrTruncated = errors.New("wire: truncated frame")
	// ErrBadMagic reports a frame that does not start with "TGAD".
	ErrBadMagic = errors.New("wire: bad magic")
	// ErrVersion reports a frame layout version this build does not
	// speak.
	ErrVersion = errors.New("wire: unsupported frame version")
	// ErrFrameType reports an unknown or contextually wrong frame type.
	ErrFrameType = errors.New("wire: unexpected frame type")
	// ErrMalformed reports structurally invalid contents: unknown flag
	// bits, zero geometry, bad strategy byte, nonzero reserved bytes,
	// or trailing bytes past the frame end.
	ErrMalformed = errors.New("wire: malformed frame")
	// ErrTooLarge reports a frame whose claimed geometry exceeds the
	// decode limits.
	ErrTooLarge = errors.New("wire: frame exceeds size limit")
)

// Request is a parsed score-request header.
type Request struct {
	// F32 marks the feature block as float32 elements.
	F32 bool
	// WantProbs requests per-class probability rows in the response.
	WantProbs bool
	// HasStrategy marks Strategy as client-chosen (a server must fail
	// the request if it cannot honor it, not silently downgrade).
	HasStrategy bool
	// Strategy is the identification strategy byte (StrategyMSP/ES/ED),
	// meaningful only when HasStrategy.
	Strategy byte
	// Rows and Features give the feature-block geometry.
	Rows, Features int
}

// elemSize returns the payload element width in bytes.
func (r Request) elemSize() int {
	if r.F32 {
		return 4
	}
	return 8
}

// PayloadSize returns the exact feature-block byte length the header
// announces. The parse limits guarantee it cannot overflow.
func (r Request) PayloadSize() int64 {
	return int64(r.Rows) * int64(r.Features) * int64(r.elemSize())
}

// FrameSize returns the total request frame length: header + payload.
func (r Request) FrameSize() int64 { return RequestHeaderSize + r.PayloadSize() }

// checkPrefix validates the common 8-byte prefix and returns the frame
// type byte.
func checkPrefix(b []byte) (byte, error) {
	if len(b) < PrefixSize {
		return 0, fmt.Errorf("%w: %d-byte prefix, want %d", ErrTruncated, len(b), PrefixSize)
	}
	if b[0] != Magic[0] || b[1] != Magic[1] || b[2] != Magic[2] || b[3] != Magic[3] {
		return 0, ErrBadMagic
	}
	if b[4] != Version {
		return 0, fmt.Errorf("%w: %d", ErrVersion, b[4])
	}
	t := b[5]
	if t != TypeRequest && t != TypeResponse && t != TypeError {
		return 0, fmt.Errorf("%w: %d", ErrFrameType, t)
	}
	return t, nil
}

// FrameType validates the common prefix and returns the frame type, so
// clients can tell a score response from an error frame before
// decoding either.
func FrameType(b []byte) (byte, error) { return checkPrefix(b) }
