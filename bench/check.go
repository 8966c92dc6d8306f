package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strconv"
)

// The oracle is the score file `targad -score` writes at fit time: one
// full-precision S^tar per test row. The benchmark compares served
// scores with it bitwise, as the little-endian float64 bytes binary
// frames carry. The response parsers below are written against the
// documented formats rather than the server's own codecs, so a codec
// bug cannot cancel itself out.

// scoreBytes appends the little-endian float64 encoding of scores to dst.
func scoreBytes(dst []byte, scores ...float64) []byte {
	for _, s := range scores {
		dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(s))
	}
	return dst
}

// Binary score-response layout (internal/wire): an 8-byte prefix
// "TGAD", version 1, type 2, flags, reserved; int64 model version;
// uint32 rows; uint32 classes; then chunks of uint32 n, n float64
// scores, n decision bytes when flag bit 0 is set, and n·classes float64
// probabilities when flag bit 1 is set.
const (
	respHeader    = 24
	flagDecisions = 1 << 0
	flagProbs     = 1 << 1
)

var errFrame = errors.New("malformed score frame")

// frameScores appends the score bytes a binary score response carries
// to dst and returns them with the model version that scored them.
func frameScores(dst, resp []byte) ([]byte, int64, error) {
	if len(resp) < respHeader || string(resp[:4]) != "TGAD" || resp[4] != 1 || resp[5] != 2 {
		return dst, 0, fmt.Errorf("%w: bad header", errFrame)
	}
	flags := resp[6]
	version := int64(binary.LittleEndian.Uint64(resp[8:]))
	rows := int(binary.LittleEndian.Uint32(resp[16:]))
	classes := int(binary.LittleEndian.Uint32(resp[20:]))
	if flags&flagProbs == 0 {
		classes = 0
	}
	body := resp[respHeader:]
	for got := 0; got < rows; {
		if len(body) < 4 {
			return dst, 0, fmt.Errorf("%w: short chunk", errFrame)
		}
		n := int(binary.LittleEndian.Uint32(body))
		body = body[4:]
		size := n * 8 * (1 + classes)
		if flags&flagDecisions != 0 {
			size += n
		}
		if n <= 0 || n > rows-got || len(body) < size {
			return dst, 0, fmt.Errorf("%w: chunk of %d rows", errFrame, n)
		}
		dst = append(dst, body[:n*8]...)
		body = body[size:]
		got += n
	}
	if len(body) != 0 {
		return dst, 0, fmt.Errorf("%w: %d trailing bytes", errFrame, len(body))
	}
	return dst, version, nil
}

// jsonScores appends the score bytes of a JSON score response
// ({"model_version":1,"scores":[...],...}) to dst. JSON numbers from the
// server are shortest round-trip renderings, so parsing them recovers
// the served float64 bits exactly.
func jsonScores(dst, resp []byte) ([]byte, error) {
	const key = `"scores":[`
	i := bytes.Index(resp, []byte(key))
	if i < 0 {
		return dst, errors.New("JSON response has no scores")
	}
	rest := resp[i+len(key):]
	end := bytes.IndexByte(rest, ']')
	if end < 0 {
		return dst, errors.New("JSON scores array is not closed")
	}
	for _, field := range bytes.Split(rest[:end], []byte{','}) {
		v, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
		if err != nil {
			return dst, fmt.Errorf("JSON score: %w", err)
		}
		dst = scoreBytes(dst, v)
	}
	return dst, nil
}
