package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"os"
	"runtime"
	"testing"

	"targad/internal/mat"
)

// fixtureForgedWidth is a v3 save whose metadata claims Dim =
// ClfHidden[0] = 1<<16 but which carries no parameter tensors. Building
// the network from that metadata would allocate two 32 GiB weight
// matrices; Load must instead reject it against the decoded tensors.
const fixtureForgedWidth = "testdata/model_forged_width.gob"

// loadAllocBound is the most Load may allocate for an n-byte stream:
// a fixed allowance for gob's type machinery and its 10 MB read and
// slice chunks, plus a per-byte factor covering the decoded tensors
// and the network built from them (a zero float64 gob-encodes in one
// byte, and the network holds values plus gradients).
func loadAllocBound(n int) uint64 { return 64<<20 + 64*uint64(n) }

// checkLoad runs Load on raw and enforces its contract on untrusted
// bytes: no panic, a typed error on failure, allocation bounded by the
// input length, and a model that scores when it loads. It returns
// Load's error.
func checkLoad(t *testing.T, raw []byte) error {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m, err := Load(bytes.NewReader(raw))
	runtime.ReadMemStats(&after)
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > loadAllocBound(len(raw)) {
		t.Fatalf("Load allocated %d bytes for a %d-byte stream (bound %d)", alloc, len(raw), loadAllocBound(len(raw)))
	}
	if err != nil {
		if !errors.Is(err, ErrBadFormat) && !errors.Is(err, ErrUnknownVersion) {
			t.Fatalf("Load error is untyped: %v", err)
		}
		return err
	}
	if _, err := m.Score(context.Background(), mat.New(2, m.dim)); err != nil {
		t.Fatalf("loaded model cannot score: %v", err)
	}
	return nil
}

// TestLoadForgedWidthRejected: metadata that promises a huge network
// fails typed against the tensors actually decoded, without building
// it.
func TestLoadForgedWidthRejected(t *testing.T) {
	raw, err := os.ReadFile(fixtureForgedWidth)
	if err != nil {
		t.Fatal(err)
	}
	if err := checkLoad(t, raw); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("forged width: err = %v, want ErrBadFormat", err)
	}
}

// TestLoadForgedMapCountBounded: a v2 save whose threshold map claims
// 1<<24 entries but carries one must not pre-size a map that large.
func TestLoadForgedMapCountBounded(t *testing.T) {
	var buf bytes.Buffer
	s := savedModel{
		M: 1, K: 1, Dim: 2, ClfHidden: []int{3},
		Thresholds: map[int]float64{int(MSP): 0.5},
		Params:     [][]float64{make([]float64, 6), make([]float64, 3), make([]float64, 6), make([]float64, 2)},
	}
	if err := writeEnvelope(&buf, kindModel, 2, &s); err != nil {
		t.Fatal(err)
	}
	// The map is count 1, key 0, value 0.5 (gob: 01 00 fe e0 3f).
	raw := patchGobMessage(t, buf.Bytes(), []byte{0x01, 0x00, 0xfe, 0xe0, 0x3f}, append(gobUint(1<<24), 0x00, 0xfe, 0xe0, 0x3f))
	if err := checkLoad(t, raw); !errors.Is(err, ErrBadFormat) {
		t.Fatalf("forged map count: err = %v, want ErrBadFormat", err)
	}
}

// patchGobMessage replaces the first occurrence of old with new inside
// the gob message containing it and rewrites that message's length
// prefix.
func patchGobMessage(t *testing.T, stream, old, new []byte) []byte {
	t.Helper()
	var out []byte
	for rest := stream; len(rest) > 0; {
		n, w := readGobUint(rest)
		msg := rest[w : w+int(n)]
		rest = rest[w+int(n):]
		if i := bytes.Index(msg, old); i >= 0 {
			msg = append(append(append([]byte(nil), msg[:i]...), new...), msg[i+len(old):]...)
			out = append(append(out, gobUint(uint64(len(msg)))...), msg...)
			return append(out, rest...)
		}
		out = append(append(out, gobUint(n)...), msg...)
	}
	t.Fatal("pattern not found in any gob message")
	return nil
}

// gobUint encodes x as gob does: one byte below 128, otherwise the
// negated byte count followed by the big-endian bytes.
func gobUint(x uint64) []byte {
	if x < 128 {
		return []byte{byte(x)}
	}
	var be [8]byte
	binary.BigEndian.PutUint64(be[:], x)
	i := 0
	for be[i] == 0 {
		i++
	}
	return append([]byte{byte(-(8 - i))}, be[i:]...)
}

// readGobUint decodes a gob uint, returning it and its encoded width.
func readGobUint(b []byte) (uint64, int) {
	if b[0] < 128 {
		return uint64(b[0]), 1
	}
	n := int(-int8(b[0]))
	var x uint64
	for _, c := range b[1 : 1+n] {
		x = x<<8 | uint64(c)
	}
	return x, 1 + n
}

// FuzzLoad feeds arbitrary bytes to Load, seeded with real v1, v2 and
// v3 saves and the forged-width file. The contract is checkLoad's:
// typed error, no panic, allocation bounded by the input length.
func FuzzLoad(f *testing.F) {
	for _, path := range []string{fixtureModel, fixtureModelV2, fixtureForgedWidth} {
		raw, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(raw)
	}
	raw, err := os.ReadFile(fixtureModelV2)
	if err != nil {
		f.Fatal(err)
	}
	m, err := Load(bytes.NewReader(raw))
	if err != nil {
		f.Fatal(err)
	}
	var v3 bytes.Buffer
	if err := m.Save(&v3); err != nil {
		f.Fatal(err)
	}
	f.Add(v3.Bytes())
	f.Fuzz(func(t *testing.T, raw []byte) { checkLoad(t, raw) })
}
