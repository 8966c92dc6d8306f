package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/iotest"

	"targad/internal/dataset"
)

// FuzzDecodeFrame drives arbitrary bytes through every decoder in the
// package. The contract under fuzz: no decoder may panic, and every
// rejection must carry exactly one typed sentinel from the taxonomy.
func FuzzDecodeFrame(f *testing.F) {
	// Seed corpus: one valid frame of each type, plus the prefixes and
	// corruptions the table tests pin.
	req64, err := AppendRequestF64(nil, [][]float64{{1, 2, 3}, {4, 5, 6}}, StrategyED, true)
	if err != nil {
		f.Fatal(err)
	}
	req32, err := AppendRequestF32(nil, [][]float32{{1.5, -2}}, -1, false)
	if err != nil {
		f.Fatal(err)
	}
	resp := AppendResponseHeader(nil, 3, 2, 2, RespFlags(true, true, true))
	resp = AppendScoreChunk(resp, []float64{0.5}, []dataset.Kind{1}, []float64{0.25, 0.75})
	resp = AppendScoreChunk(resp, []float64{0.125}, []dataset.Kind{0}, []float64{0.5, 0.5})
	errFrame := AppendError(nil, 400, "input dim mismatch")

	f.Add(req64)
	f.Add(req32)
	f.Add(resp)
	f.Add(errFrame)
	f.Add([]byte{})
	f.Add([]byte("TGAD"))
	f.Add(req64[:RequestHeaderSize])
	f.Add(req64[:len(req64)-1])
	f.Add(append(append([]byte(nil), req32...), 0xFF))
	f.Add([]byte{'T', 'G', 'A', 'D', 2, 1, 0, 0})
	f.Add([]byte{'T', 'G', 'A', 'D', 1, 9, 0, 0})

	typed := func(err error) bool {
		return errors.Is(err, ErrTruncated) || errors.Is(err, ErrBadMagic) ||
			errors.Is(err, ErrVersion) || errors.Is(err, ErrFrameType) ||
			errors.Is(err, ErrMalformed) || errors.Is(err, ErrTooLarge)
	}

	f.Fuzz(func(t *testing.T, b []byte) {
		h, x, err := DecodeRequestFrame(b)
		if err != nil && !typed(err) {
			t.Fatalf("DecodeRequestFrame: untyped error %v", err)
		}
		// The streaming reader, fed the payload a byte at a time, must
		// agree with the whole-frame decode bit for bit, and fail typed
		// on a short block (only small blocks: the reader sizes its
		// matrix from the header).
		if x != nil || (err != nil && errors.Is(err, ErrTruncated) && len(b) >= RequestHeaderSize && h.PayloadSize() <= 1<<16) {
			var p PayloadReader
			got, serr := p.ReadF64(iotest.OneByteReader(bytes.NewReader(b[RequestHeaderSize:])), h, nil)
			switch {
			case x == nil && !errors.Is(serr, ErrTruncated):
				t.Fatalf("PayloadReader on a short block: %v, want ErrTruncated", serr)
			case x != nil && serr != nil:
				t.Fatalf("PayloadReader failed where DecodeRequestFrame succeeded: %v", serr)
			case x != nil:
				for i := range x.Data {
					if math.Float64bits(got.Data[i]) != math.Float64bits(x.Data[i]) {
						t.Fatalf("PayloadReader element %d = %v, want %v", i, got.Data[i], x.Data[i])
					}
				}
			}
		}
		if _, err := DecodeResponse(b); err != nil && !typed(err) {
			t.Fatalf("DecodeResponse: untyped error %v", err)
		}
		if _, _, err := DecodeErrorFrame(b); err != nil && !typed(err) {
			t.Fatalf("DecodeErrorFrame: untyped error %v", err)
		}
		if _, err := FrameType(b); err != nil && !typed(err) {
			t.Fatalf("FrameType: untyped error %v", err)
		}
	})
}
