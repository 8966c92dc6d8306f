package main

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"targad/internal/dataset"
	"targad/internal/wire"
)

// scoreFrame encodes scores as a server's binary response, streamed in
// chunks of at most chunk rows.
func scoreFrame(scores []float64, chunk int) []byte {
	kinds := make([]dataset.Kind, len(scores))
	out := wire.AppendResponseHeader(nil, 3, len(scores), 0, wire.RespFlags(true, false, len(scores) > chunk))
	for lo := 0; lo < len(scores); lo += chunk {
		hi := min(lo+chunk, len(scores))
		out = wire.AppendScoreChunk(out, scores[lo:hi], kinds[lo:hi], nil)
	}
	return out
}

func TestOracleCatchesOneFlippedScoreBit(t *testing.T) {
	oracle := []float64{0.125, 0.9999999999999999, 3.0e-9, 0.5, 0.75}
	want := scoreBytes(nil, oracle...)

	for _, chunk := range []int{5, 2} {
		got, version, err := frameScores(nil, scoreFrame(oracle, chunk))
		if err != nil || version != 3 || !bytes.Equal(got, want) {
			t.Fatalf("chunk %d: exact frame read as %v v%d (err %v)", chunk, got, version, err)
		}
	}
	body, err := json.Marshal(map[string]any{"model_version": 1, "scores": oracle, "decisions": []string{"normal"}})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := jsonScores(nil, body); err != nil || !bytes.Equal(got, want) {
		t.Fatalf("exact JSON read as %v (err %v)", got, err)
	}

	flipped := append([]float64(nil), oracle...)
	flipped[2] = math.Float64frombits(math.Float64bits(flipped[2]) ^ 1) // lowest mantissa bit
	got, _, err := frameScores(nil, scoreFrame(flipped, 2))
	if err != nil || bytes.Equal(got, want) {
		t.Fatalf("a frame with one flipped score bit passed the oracle (err %v)", err)
	}
	body, err = json.Marshal(map[string]any{"model_version": 1, "scores": flipped})
	if err != nil {
		t.Fatal(err)
	}
	if got, err := jsonScores(nil, body); err != nil || bytes.Equal(got, want) {
		t.Fatalf("JSON with one flipped score bit passed the oracle (err %v)", err)
	}
}

func TestFrameScoresRejectsMalformed(t *testing.T) {
	frame := scoreFrame([]float64{1, 2, 3}, 2)
	for name, b := range map[string][]byte{
		"truncated":  frame[:len(frame)-1],
		"trailing":   append(append([]byte(nil), frame...), 0),
		"error type": wire.AppendError(nil, 500, "boom"),
		"short":      frame[:10],
	} {
		if _, _, err := frameScores(nil, b); err == nil {
			t.Errorf("%s frame accepted", name)
		}
	}
}
