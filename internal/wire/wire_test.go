package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"strings"
	"testing"
	"testing/iotest"

	"targad/internal/dataset"
	"targad/internal/mat"
)

func validF64Frame(t *testing.T, rows, features int, strategy int, probs bool) []byte {
	t.Helper()
	data := make([][]float64, rows)
	for i := range data {
		data[i] = make([]float64, features)
		for j := range data[i] {
			data[i][j] = float64(i*features+j) / 7
		}
	}
	b, err := AppendRequestF64(nil, data, strategy, probs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRequestRoundTripF64(t *testing.T) {
	frame := validF64Frame(t, 3, 5, StrategyED, true)
	h, err := ParseRequestHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if h.F32 || !h.WantProbs || !h.HasStrategy || h.Strategy != StrategyED || h.Rows != 3 || h.Features != 5 {
		t.Fatalf("header = %+v", h)
	}
	if got, want := h.FrameSize(), int64(len(frame)); got != want {
		t.Fatalf("FrameSize = %d, frame is %d bytes", got, want)
	}
	x, err := DecodePayloadF64(h, frame[RequestHeaderSize:], nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		for j := 0; j < 5; j++ {
			if x.At(i, j) != float64(i*5+j)/7 {
				t.Fatalf("payload[%d][%d] = %v", i, j, x.At(i, j))
			}
		}
	}
	// Ensure-reuse decodes into the same backing array.
	prev := &x.Data[0]
	if x, err = DecodePayloadF64(h, frame[RequestHeaderSize:], x); err != nil {
		t.Fatal(err)
	}
	if prev != &x.Data[0] {
		t.Fatal("recycled decode reallocated the matrix")
	}
}

func TestRequestRoundTripF32(t *testing.T) {
	rows := [][]float32{{1.5, -2.25}, {0.125, 3e7}}
	frame, err := AppendRequestF32(nil, rows, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	h, err := ParseRequestHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	if !h.F32 || h.HasStrategy || h.WantProbs || h.Rows != 2 || h.Features != 2 {
		t.Fatalf("header = %+v", h)
	}
	var p PayloadReader
	// Widening decode agrees with float64(float32) exactly.
	x, err := p.ReadRows(bytes.NewReader(frame[RequestHeaderSize:]), h, 0, h.Rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	for i := range rows {
		for j := range rows[i] {
			if x.At(i, j) != float64(rows[i][j]) {
				t.Fatalf("widened payload[%d][%d] = %v", i, j, x.At(i, j))
			}
		}
	}
	// A short f32 block fails typed, like a short f64 one.
	if _, err := p.ReadRows(bytes.NewReader(frame[RequestHeaderSize:len(frame)-1]), h, 0, h.Rows, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated f32 stream: %v", err)
	}
}

// TestRequestHeaderErrors walks the malformed-prefix taxonomy: every
// corruption maps to its typed sentinel, never a panic.
func TestRequestHeaderErrors(t *testing.T) {
	base := validF64Frame(t, 2, 3, StrategyMSP, false)
	mut := func(fn func(b []byte)) []byte {
		b := append([]byte(nil), base...)
		fn(b)
		return b
	}
	cases := []struct {
		name  string
		frame []byte
		want  error
	}{
		{"empty", nil, ErrTruncated},
		{"short prefix", base[:7], ErrTruncated},
		{"short header", base[:12], ErrTruncated},
		{"bad magic", mut(func(b []byte) { b[0] = 'X' }), ErrBadMagic},
		{"bad version", mut(func(b []byte) { b[4] = 9 }), ErrVersion},
		{"bad type", mut(func(b []byte) { b[5] = 77 }), ErrFrameType},
		{"response type", mut(func(b []byte) { b[5] = TypeResponse }), ErrFrameType},
		{"unknown flags", mut(func(b []byte) { b[6] = 0x80 }), ErrMalformed},
		{"bad strategy", mut(func(b []byte) { b[6] = FlagReqStrategy; b[7] = 3 }), ErrMalformed},
		{"stray strategy byte", mut(func(b []byte) { b[6] = 0; b[7] = 1 }), ErrMalformed},
		{"zero rows", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], 0) }), ErrMalformed},
		{"zero features", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], 0) }), ErrMalformed},
		{"huge rows", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[8:], MaxRows+1) }), ErrTooLarge},
		{"huge features", mut(func(b []byte) { binary.LittleEndian.PutUint32(b[12:], MaxFeatures+1) }), ErrTooLarge},
	}
	for _, tc := range cases {
		if _, err := ParseRequestHeader(tc.frame); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}

	h, err := ParseRequestHeader(base)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := DecodePayloadF64(h, base[RequestHeaderSize:len(base)-1], nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated payload: %v", err)
	}
	if _, err := DecodePayloadF64(h, append(append([]byte(nil), base[RequestHeaderSize:]...), 0), nil); !errors.Is(err, ErrMalformed) {
		t.Fatalf("trailing payload bytes: %v", err)
	}
	var p PayloadReader
	if _, err := p.ReadRows(bytes.NewReader(base[RequestHeaderSize:len(base)-1]), h, 0, h.Rows, nil); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated stream: %v", err)
	}
}

// TestPayloadReaderChunking streams blocks larger than one staging
// chunk through readers that return one byte, or half the request, per
// Read: element values must not depend on how the bytes arrive, and a
// recycled matrix is reused.
func TestPayloadReaderChunking(t *testing.T) {
	const rows, features = 37, 61 // 2257 elements: several f64 and f32 chunks plus a remainder
	f64 := validF64Frame(t, rows, features, -1, false)
	data32 := make([][]float32, rows)
	for i := range data32 {
		data32[i] = make([]float32, features)
		for j := range data32[i] {
			data32[i][j] = float32(i*features+j) / 3
		}
	}
	f32, err := AppendRequestF32(nil, data32, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	wraps := map[string]func(io.Reader) io.Reader{
		"whole":    func(r io.Reader) io.Reader { return r },
		"one-byte": iotest.OneByteReader,
		"half":     iotest.HalfReader,
	}
	var p PayloadReader
	for name, wrap := range wraps {
		for _, frame := range [][]byte{f64, f32} {
			h, err := ParseRequestHeader(frame)
			if err != nil {
				t.Fatal(err)
			}
			_, want, err := DecodeRequestFrame(frame)
			if err != nil {
				t.Fatal(err)
			}
			got, err := p.ReadRows(wrap(bytes.NewReader(frame[RequestHeaderSize:])), h, 0, h.Rows, mat.New(1, 1))
			if err != nil {
				t.Fatalf("%s f32=%v: %v", name, h.F32, err)
			}
			for i := range want.Data {
				if math.Float64bits(got.Data[i]) != math.Float64bits(want.Data[i]) {
					t.Fatalf("%s f32=%v: element %d = %v, want %v", name, h.F32, i, got.Data[i], want.Data[i])
				}
			}
			prev := &got.Data[0]
			if got, err = p.ReadRows(wrap(bytes.NewReader(frame[RequestHeaderSize:])), h, 0, h.Rows, got); err != nil || &got.Data[0] != prev {
				t.Fatalf("%s f32=%v: recycled read reallocated or failed: %v", name, h.F32, err)
			}
			if h.F32 {
				for i, v := range got.Data {
					if v != float64(data32[i/features][i%features]) {
						t.Fatalf("%s: f32 element %d = %v", name, i, v)
					}
				}
			}
		}
	}
}

func TestResponseRoundTrip(t *testing.T) {
	scores := []float64{0.25, 0.5, 1e-300}
	kinds := []dataset.Kind{dataset.KindNormal, dataset.KindTarget, dataset.KindNonTarget}
	probs := []float64{
		0.1, 0.9,
		0.8, 0.2,
		0.5, 0.5,
	}
	b := AppendResponseHeader(nil, 42, 3, 2, RespFlags(true, true, false))
	b = AppendScoreChunk(b, scores, kinds, probs)
	r, err := DecodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if r.ModelVersion != 42 || r.Chunks != 1 || r.Streamed {
		t.Fatalf("response = %+v", r)
	}
	for i, s := range scores {
		if r.Scores[i] != s || r.Decisions[i] != kinds[i] {
			t.Fatalf("row %d: %v %v", i, r.Scores[i], r.Decisions[i])
		}
	}
	if r.Probs.Rows != 3 || r.Probs.Cols != 2 {
		t.Fatalf("probs %dx%d", r.Probs.Rows, r.Probs.Cols)
	}
	for i, v := range probs {
		if r.Probs.Data[i] != v {
			t.Fatalf("probs[%d] = %v", i, r.Probs.Data[i])
		}
	}
}

func TestResponseChunked(t *testing.T) {
	const total = 5
	scores := []float64{1, 2, 3, 4, 5}
	kinds := []dataset.Kind{0, 1, 2, 1, 0}
	b := AppendResponseHeader(nil, 7, total, 0, RespFlags(true, false, true))
	b = AppendScoreChunk(b, scores[:2], kinds[:2], nil)
	b = AppendScoreChunk(b, scores[2:4], kinds[2:4], nil)
	b = AppendScoreChunk(b, scores[4:], kinds[4:], nil)
	r, err := DecodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	if !r.Streamed || r.Chunks != 3 || len(r.Scores) != total {
		t.Fatalf("response = %+v", r)
	}
	for i := range scores {
		if r.Scores[i] != scores[i] || r.Decisions[i] != kinds[i] {
			t.Fatalf("row %d mismatch", i)
		}
	}
	if r.Probs != nil {
		t.Fatal("probs decoded without the flag")
	}
}

func TestResponseErrors(t *testing.T) {
	good := AppendResponseHeader(nil, 1, 2, 0, RespFlags(false, false, false))
	good = AppendScoreChunk(good, []float64{1, 2}, nil, nil)
	if _, err := DecodeResponse(good); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		mut  func(b []byte) []byte
		want error
	}{
		{"short header", func(b []byte) []byte { return b[:20] }, ErrTruncated},
		{"short chunk", func(b []byte) []byte { return b[:len(b)-3] }, ErrTruncated},
		{"trailing bytes", func(b []byte) []byte { return append(b, 0) }, ErrMalformed},
		{"bad flags", func(b []byte) []byte { b[6] = 0x40; return b }, ErrMalformed},
		{"classes without probs", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[20:], 3); return b }, ErrMalformed},
		{"oversized chunk", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[24:], 9); return b }, ErrMalformed},
		{"zero rows", func(b []byte) []byte { binary.LittleEndian.PutUint32(b[16:], 0); return b }, ErrMalformed},
	}
	for _, tc := range cases {
		b := tc.mut(append([]byte(nil), good...))
		if _, err := DecodeResponse(b); !errors.Is(err, tc.want) {
			t.Fatalf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
	}
}

func TestErrorFrameRoundTrip(t *testing.T) {
	b := AppendError(nil, 413, "request exceeds -max-request-bytes")
	typ, err := FrameType(b)
	if err != nil || typ != TypeError {
		t.Fatalf("FrameType = %d, %v", typ, err)
	}
	code, msg, err := DecodeErrorFrame(b)
	if err != nil {
		t.Fatal(err)
	}
	if code != 413 || msg != "request exceeds -max-request-bytes" {
		t.Fatalf("decoded %d %q", code, msg)
	}
	if _, _, err := DecodeErrorFrame(b[:len(b)-2]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("truncated message: %v", err)
	}
}

// TestScoreBitsSurviveRoundTrip pins the bit-for-bit score contract:
// every float64 pattern, including negative zero and subnormals,
// crosses the wire unchanged.
func TestScoreBitsSurviveRoundTrip(t *testing.T) {
	scores := []float64{0, math.Copysign(0, -1), 1.0 / 3, 5e-324, math.MaxFloat64, math.SmallestNonzeroFloat64}
	b := AppendResponseHeader(nil, 1, len(scores), 0, 0)
	b = AppendScoreChunk(b, scores, nil, nil)
	r, err := DecodeResponse(b)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range scores {
		if math.Float64bits(r.Scores[i]) != math.Float64bits(s) {
			t.Fatalf("score %d: bits %x != %x", i, math.Float64bits(r.Scores[i]), math.Float64bits(s))
		}
	}
}

func TestAppendRequestValidation(t *testing.T) {
	if _, err := AppendRequestF64(nil, nil, -1, false); err == nil {
		t.Fatal("empty request must not encode")
	}
	if _, err := AppendRequestF64(nil, [][]float64{{1, 2}, {1}}, -1, false); err == nil {
		t.Fatal("ragged rows must not encode")
	}
	if _, err := AppendRequestF64(nil, [][]float64{{1}}, 3, false); err == nil {
		t.Fatal("out-of-range strategy must not encode")
	}
}

func TestParseRequestFrameSize(t *testing.T) {
	rows := [][]float64{{1, 2, 3}, {4, 5, 6}}
	frame, err := AppendRequestF64(nil, rows, -1, false)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ParseRequestFrameSize(frame[:RequestHeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(len(frame)) {
		t.Fatalf("ParseRequestFrameSize = %d, want the encoded frame length %d", got, len(frame))
	}

	f32, err := AppendRequestF32(nil, [][]float32{{1, 2}}, StrategyED, true)
	if err != nil {
		t.Fatal(err)
	}
	got, err = ParseRequestFrameSize(f32[:RequestHeaderSize])
	if err != nil {
		t.Fatal(err)
	}
	if got != int64(len(f32)) {
		t.Fatalf("f32 ParseRequestFrameSize = %d, want %d", got, len(f32))
	}

	if _, err := ParseRequestFrameSize(frame[:RequestHeaderSize-1]); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short header error = %v, want ErrTruncated", err)
	}
	bad := append([]byte(nil), frame[:RequestHeaderSize]...)
	bad[5] = TypeResponse
	if _, err := ParseRequestFrameSize(bad); !errors.Is(err, ErrFrameType) {
		t.Fatalf("non-request frame error = %v, want ErrFrameType", err)
	}
}

// TestReadRowsInPasses: a block read as consecutive ReadRows passes
// decodes exactly what one call over the whole block does, each pass
// into a matrix of its own rows only, and a block cut short names the
// byte offset it ended at, counted over the whole block.
func TestReadRowsInPasses(t *testing.T) {
	const rows, features, pass = 23, 5, 4
	frame := validF64Frame(t, rows, features, StrategyED, false)
	h, err := ParseRequestHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	var p PayloadReader
	want, err := p.ReadRows(bytes.NewReader(frame[RequestHeaderSize:]), h, 0, h.Rows, nil)
	if err != nil {
		t.Fatal(err)
	}
	body := iotest.HalfReader(bytes.NewReader(frame[RequestHeaderSize:]))
	var x *mat.Matrix
	for lo := 0; lo < rows; lo += pass {
		n := min(pass, rows-lo)
		if x, err = p.ReadRows(body, h, lo, n, x); err != nil {
			t.Fatalf("pass at row %d: %v", lo, err)
		}
		if x.Rows != n || cap(x.Data) > pass*features {
			t.Fatalf("pass at row %d: %d rows, capacity %d, want %d rows within %d", lo, x.Rows, cap(x.Data), n, pass*features)
		}
		for i, v := range x.Data {
			if v != want.Data[lo*features+i] {
				t.Fatalf("pass at row %d: element %d = %v, want %v", lo, i, v, want.Data[lo*features+i])
			}
		}
	}

	short := bytes.NewReader(frame[RequestHeaderSize : len(frame)-8])
	if _, err := p.ReadRows(short, h, 0, 20, nil); err != nil {
		t.Fatal(err)
	}
	_, err = p.ReadRows(short, h, 20, 3, nil)
	if !errors.Is(err, ErrTruncated) {
		t.Fatalf("short last pass: %v, want ErrTruncated", err)
	}
	if msg := fmt.Sprintf("ends after %d of %d bytes", h.PayloadSize()-8, h.PayloadSize()); !strings.Contains(err.Error(), msg) {
		t.Fatalf("short last pass: %q does not say %q", err, msg)
	}
}
