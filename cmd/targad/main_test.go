package main

import (
	"bytes"
	"errors"
	"testing"
)

// failAfter is an io.Writer that accepts n bytes and then fails.
type failAfter struct{ n int }

var errDiskFull = errors.New("no space left on device")

func (f *failAfter) Write(p []byte) (int, error) {
	if len(p) > f.n {
		w := f.n
		f.n = 0
		return w, errDiskFull
	}
	f.n -= len(p)
	return len(p), nil
}

func TestWriteScoresReportsWriteFailure(t *testing.T) {
	scores := make([]float64, 2000) // more than one bufio buffer
	for i := range scores {
		scores[i] = 1.0 / float64(i+3)
	}
	for _, n := range []int{0, 100, 5000} {
		if err := writeScores(&failAfter{n: n}, scores); !errors.Is(err, errDiskFull) {
			t.Fatalf("writer failing after %d bytes: got %v, want the write error", n, err)
		}
	}
	// A short score list fits the buffer, so only Flush can fail.
	if err := writeScores(&failAfter{n: 3}, scores[:2]); !errors.Is(err, errDiskFull) {
		t.Fatalf("failing flush: got %v, want the write error", err)
	}
}

func TestWriteScoresFullPrecision(t *testing.T) {
	var buf bytes.Buffer
	if err := writeScores(&buf, []float64{0.1, 1.0 / 3, -2}); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "0.1\n0.3333333333333333\n-2\n"; got != want {
		t.Fatalf("wrote %q, want %q", got, want)
	}
}

func TestWriteScoresToReportsCreateFailure(t *testing.T) {
	if err := writeScoresTo(t.TempDir()+"/missing/scores.txt", []float64{1}); err == nil {
		t.Fatal("creating the output in a missing directory must fail")
	}
}
